"""End-to-end tests for the command line interface."""

import ast
import hashlib
import itertools
import json
import os
import time
from collections import Counter
from pathlib import Path

import pytest

from adjrings import cli, groups, morphisms, rings, verify
from adjrings.adjoint import AdjointGroup
from adjrings.cli import (
    ALL_CHECKS,
    CorpusEntry,
    build_tasks,
    builtin_ring,
    default_corpus,
    load_manifest,
    main,
    run_check,
    run_verification,
)
from adjrings.errors import AlgebraError
from adjrings.groups import builtin_group
from adjrings.report import skipped, verdict
from adjrings.rings import FiniteRing, load_ring
from adjrings.verify import CHECKS


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


def write_manifest(path, entries):
    path.write_text(json.dumps({"entries": entries}))
    return str(path)


def test_ring_info_builtin(capsys):
    assert main(["ring-info", "3z27"]) == 0
    out = capsys.readouterr().out
    assert "ring 3z27" in out
    assert "p: 3" in out
    assert "m: 2" in out
    assert "adjoint order: 9" in out
    assert "adjoint exponent: 9" in out


def test_ring_info_from_file(tmp_path, capsys):
    assert main(["enumerate-rings", "--p", "2", "--exps", "1",
                 "--out", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 2
    capsys.readouterr()
    assert main(["ring-info", str(files[0])]) == 0
    assert "order: 2" in capsys.readouterr().out


def test_ring_info_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 2, "exps": [1, 1], "mul": [[[1, 0]]]}))
    assert main(["ring-info", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    notjson = tmp_path / "broken.json"
    notjson.write_text("{not json")
    assert main(["ring-info", str(notjson)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("mul", [5, [[["a"]]], [[[None]]], [[[1.5]]]])
def test_ring_info_malformed_mul_exits_2(tmp_path, capsys, mul):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 2, "exps": [1], "mul": mul}))
    assert main(["ring-info", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spec, obj, match", [
    ("zero:4:1000000000000", None, "p = 4 is not prime"),
    (None, {"p": 3, "exps": [1000000000000], "mul": [[1]]}, "mul entry (0,0) must be a list"),
])
def test_ring_info_huge_exponent_is_refused_before_powering(tmp_path, capsys, spec, obj, match):
    # p^e for e = 10^12 would be a bigint of 10^11 bytes or more; the prime test
    # and the tensor shape refuse these first
    if obj is not None:
        spec = str(tmp_path / "r.json")
        Path(spec).write_text(json.dumps(obj))
    start = time.perf_counter()
    assert main(["ring-info", spec]) == 2
    assert time.perf_counter() - start < 1
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("spec, obj, match", [
    ("z1000000000000000003", None, "ring tables capped at 729 elements"),
    ("3z1000000000000000003", None, "3 must be a proper p-power divisor of 1000000000000000003"),
    ("zero:3:1000000000000", None, "|R| = 3^1000000000000 may pass 128 bits"),
    (None, {"p": 1000000000000000003, "exps": [1], "mul": [[[0]]]}, "ring tables capped at 729 elements"),
    (None, {"p": 3, "exps": [1000000000000], "mul": [[[0]]]}, "|R| = 3^1000000000000 may pass 128 bits"),
])
def test_ring_info_outside_input_is_bounded_before_arithmetic(tmp_path, capsys, spec, obj, match):
    # trial division of p = 10^18 + 3 up to its square root, and 3^(10^12),
    # each ran past 5 s; the Miller-Rabin test and the 128-bit order bound
    # answer both at once
    if obj is not None:
        spec = str(tmp_path / "r.json")
        Path(spec).write_text(json.dumps(obj))
    start = time.perf_counter()
    assert main(["ring-info", spec]) == 2
    assert time.perf_counter() - start < 1
    assert match in capsys.readouterr().err


def test_ring_info_unknown_spec(capsys):
    assert main(["ring-info", "nonsense"]) == 2
    assert "unknown ring spec" in capsys.readouterr().err


C2_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize("obj", [
    {"order": 2.9, "identity": False, "table": [[0, 1.9], [1.2, 0]]},
    {"order": 2.9, "identity": 0, "table": C2_TABLE},
    {"order": 2, "identity": False, "table": C2_TABLE},
    {"order": 2, "identity": 0, "table": [[0, 1.9], [1.2, 0]]},
    {"order": 2, "identity": 0, "table": [[0, 1], [1]]},
    {"degree": 0, "perm_gens": []},
], ids=["all-wrong", "float-order", "bool-identity", "float-entries", "ragged", "no-perms"])
def test_group_info_malformed_json_exits_2(tmp_path, capsys, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["group-info", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_group_info_p_group(capsys):
    assert main(["group-info", "q8"]) == 0
    out = capsys.readouterr().out
    assert "c: 2" in out and "t: 1" in out and "d: 2" in out


def test_group_info_trivial(capsys):
    assert main(["group-info", "c1"]) == 0
    assert "trivial" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["es_p3_ab", "m8"])
def test_group_info_unknown_builtin_exits_2(capsys, name):
    assert main(["group-info", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", ["c0", "q0", "c-3"])
def test_group_info_order_below_one_exits_2(capsys, name):
    assert main(["group-info", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is below 1" in err and "Traceback" not in err


def test_group_info_non_p_group(capsys):
    assert main(["group-info", "d12"]) == 0
    out = capsys.readouterr().out
    assert "not a p-group" in out and "order: 12" in out


def test_enumerate_rings_filter(tmp_path, capsys):
    out_all = tmp_path / "all"
    out_nil = tmp_path / "nil"
    assert main(["enumerate-rings", "--p", "3", "--exps", "2",
                 "--out", str(out_all)]) == 0
    text = capsys.readouterr().out
    assert "candidates: 9" in text and "associative: 9" in text
    assert len(list(out_all.glob("*.json"))) == 9
    assert main(["enumerate-rings", "--p", "3", "--exps", "2",
                 "--filter", "p-nil", "--out", str(out_nil)]) == 0
    assert "kept: 3" in capsys.readouterr().out
    assert len(list(out_nil.glob("*.json"))) == 3


def test_enumerate_rings_filter_walks_only_the_p_nil_slots(tmp_path, capsys):
    # building all of (3, (2, 1, 1)) passes ENUM_BUDGET; the filters walk only
    # their slots, and `associative:` counts the rings the walk finds
    left, right = FiniteRing.is_left_p_nil, FiniteRing.is_right_p_nil
    for flag, count, preds in (("left-p-nil", 315, (left,)), ("right-p-nil", 315, (right,)),
                               ("p-nil", 27, (left, right))):
        out = tmp_path / flag
        assert main(["enumerate-rings", "--p", "3", "--exps", "2,1,1", "--filter", flag,
                     "--out", str(out)]) == 0
        counts = capsys.readouterr().out.splitlines()[1:3]
        assert counts == [f"associative: {count}", f"kept: {count}"]
        written = [load_ring(path) for path in sorted(out.glob("*.json"))]
        assert len(written) == count
        assert all(pred(ring) for ring in written for pred in preds)


def test_enumerate_rings_budget(tmp_path, capsys, monkeypatch):
    # (5, (1, 1)) builds 46900 partial tensors; one short of that, the refusal
    # comes after rings were written, and each written file is a whole ring
    monkeypatch.setattr(rings, "ENUM_BUDGET", 46899)
    out = tmp_path / "x"
    assert main(["enumerate-rings", "--p", "5", "--exps", "1,1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration built over 46899 partial tensors\n"
    written = sorted(out.glob("*.json"))
    first = itertools.islice(rings.enumerate_rings(5, (1, 1)), len(written))
    assert 0 < len(written) < 793
    assert [path.stem for path in written] == [ring.name for ring in first]
    assert all(load_ring(path).order == 25 for path in written)


def test_enumerate_rings_has_no_budget_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["enumerate-rings", "--p", "2", "--exps", "1", "--budget", "100",
              "--out", str(tmp_path / "x")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --budget 100" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_enumerate_rings_out_on_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["enumerate-rings", "--p", "2", "--exps", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err and "Traceback" not in err
    assert out.read_text() == ""


def test_verify_refuses_an_unwritable_report_before_any_task(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_verification", lambda *args: pytest.fail("tasks ran"))
    report = tmp_path / "missing" / "r.jsonl"
    assert main(["verify", "--checks", "laue", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert err.count("\n") == 1 and not report.parent.exists()


@pytest.mark.parametrize("exps", ["x", "-1"])
def test_enumerate_rings_bad_exps_exit_2(tmp_path, capsys, exps):
    code = main(["enumerate-rings", "--p", "7", "--exps", exps,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["--p", "7", "--exps", "-1"],
    ["--p", "4", "--exps", "1"],
    ["--p", "2", "--exps", "33,1"],
    ["--p", "2", "--exps", "22,21,21"],
    ["--p", "2", "--exps", "21,21,21"],
])
def test_enumerate_rings_refusal_leaves_no_out_dir(tmp_path, capsys, args):
    out = tmp_path / "x"
    assert main(["enumerate-rings", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("p, exps", [("1000000000000000003", "1"), ("4", "1000000000000")])
def test_enumerate_rings_huge_type_is_refused_before_its_primality_test(tmp_path, capsys,
                                                                         p, exps):
    # trial division of p = 10^18 + 3 up to its square root ran past 10 s; the
    # int64 guard on the associativity sums refuses it first.  4^(10^12) would
    # be a bigint of 250 GB: the guard refuses it without powering
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["enumerate-rings", "--p", p, "--exps", exps, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1
    assert "exceed int64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exps", ["1,,1", ",,,", "", ",", "1,"])
def test_enumerate_rings_refuses_empty_exps_tokens(tmp_path, capsys, exps):
    # "1,,1" used to enumerate (1, 1) and ",,," the 0-dimensional type
    out = tmp_path / "x"
    assert main(["enumerate-rings", "--p", "2", "--exps", exps, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --exps must be comma-separated integers, "
                                       f"got {exps!r}\n")
    assert not out.exists()


def test_enumerate_rings_keeping_no_ring_still_creates_out_dir(tmp_path, capsys, monkeypatch):
    # every walk yields the zero ring, so an enumerator that yields nothing stands in
    monkeypatch.setattr(cli, "enumerate_rings", lambda p, exps, sides: iter(()))
    out = tmp_path / "x"
    assert main(["enumerate-rings", "--p", "3", "--exps", "1", "--filter", "p-nil",
                 "--out", str(out)]) == 0
    assert "kept: 0" in capsys.readouterr().out
    assert out.is_dir() and not any(out.iterdir())


def test_builtin_ring_specs():
    assert builtin_ring("trivial").order == 1
    assert builtin_ring("z9").order == 9
    assert builtin_ring("3z27").order == 9
    R = builtin_ring("zero:3:1.1")
    assert R.order == 9 and R.dim == 2
    assert (R.name, R.exps) == ("zero_p3_1_1", (1, 1))
    assert (builtin_ring("zero:3:").exps, builtin_ring("zero:3:").order) == ((), 1)
    with pytest.raises(Exception):
        builtin_ring("q8")


@pytest.mark.parametrize("spec", ["zero:3:1..1", "zero:3:.1", "zero:3:1."])
def test_zero_ring_spec_refuses_an_empty_exponent(tmp_path, capsys, spec):
    with pytest.raises(AlgebraError, match="unknown ring spec"):
        builtin_ring(spec)
    assert main(["ring-info", spec]) == 2
    man = write_manifest(tmp_path / "m.json", [{"id": "r", "kind": "ring", "builtin": spec}])
    assert main(["verify", "--corpus", man]) == 2
    assert capsys.readouterr().err.count("unknown ring spec") == 2


def test_manifest_duplicate_id(tmp_path, capsys):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "a", "kind": "ring", "builtin": "z4"},
        {"id": "a", "kind": "ring", "builtin": "z9"},
    ])
    assert main(["verify", "--corpus", man]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_manifest_bad_kind(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps(
        {"entries": [{"id": "a", "kind": "field", "builtin": "z4"}]}))
    assert main(["verify", "--corpus", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("obj, field", [
    ({"items": []}, "entries"),
    ({"entries": [{"kind": "ring", "builtin": "z4"}]}, "id"),
    ({"entries": [{"id": "a", "builtin": "z4"}]}, "kind"),
])
def test_manifest_missing_field_exits_2(tmp_path, capsys, obj, field):
    (tmp_path / "m.json").write_text(json.dumps(obj))
    assert main(["verify", "--corpus", str(tmp_path / "m.json")]) == 2
    assert f"no {field!r} field" in capsys.readouterr().err


@pytest.mark.parametrize("entries, message", [
    (5, "entries must be a list"),
    ([{"id": "a", "kind": "group", "builtin": 7}], "needs a path or builtin spec string"),
    ([{"id": "a", "kind": "ring", "path": "{dir}"}], "{dir}"),
    ([{"id": ["a"], "kind": "ring", "builtin": "z4"}], "id must be a string"),
    ([{"id": "a", "kind": "ring", "path": "", "builtin": "z4"}],
     "needs a path or builtin spec string"),
    ([{"id": "a", "kind": "group", "builtin": "es_p3_q"}], "unknown group name 'es_p3_q'"),
], ids=["entries-not-a-list", "builtin-not-a-string", "path-is-a-directory",
        "id-not-a-string", "empty-path-beside-builtin", "builtin-group-not-a-name"])
def test_manifest_malformed_exits_2(tmp_path, capsys, entries, message):
    text = json.dumps({"entries": entries}).replace("{dir}", str(tmp_path))
    (tmp_path / "m.json").write_text(text)
    assert main(["verify", "--corpus", str(tmp_path / "m.json"), "--checks", "laue"]) == 2
    assert message.replace("{dir}", str(tmp_path)) in capsys.readouterr().err


def test_corpus_directory_exits_2(tmp_path, capsys):
    assert main(["verify", "--corpus", str(tmp_path), "--checks", "laue"]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_manifest_paths(tmp_path):
    assert main(["enumerate-rings", "--p", "2", "--exps", "1",
                 "--out", str(tmp_path)]) == 0
    ring_file = sorted(tmp_path.glob("*.json"))[0]
    entries = load_manifest(write_manifest(tmp_path / "m.json", [
        {"id": "r", "kind": "ring", "path": str(ring_file)},
        {"id": "g", "kind": "group", "builtin": "c4"},
    ]))
    assert [e.kind for e in entries] == ["ring", "group"]
    assert entries[0].obj.order == 2


def test_verify_small_manifest(tmp_path, capsys):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "ring:3z27", "kind": "ring", "builtin": "3z27"},
        {"id": "group:q8", "kind": "group", "builtin": "q8"},
    ])
    report = tmp_path / "rep.jsonl"
    assert main(["verify", "--corpus", man, "--report", str(report)]) == 0
    recs = [json.loads(line) for line in report.read_text().splitlines()]
    assert all(r["verdict"] in ("pass", "fail", "skipped") for r in recs)
    assert not any(r["verdict"] == "fail" for r in recs)
    checks = {r["check"] for r in recs}
    assert "omega-correspondence" in checks and "laue" in checks
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_verify_skip_surfaces_in_report(tmp_path):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "ring:z9", "kind": "ring", "builtin": "z9"},
    ])
    report = tmp_path / "rep.jsonl"
    assert main(["verify", "--corpus", man, "--report", str(report)]) == 0
    recs = [json.loads(line) for line in report.read_text().splitlines()]
    omega = [r for r in recs if r["check"] == "omega-correspondence"]
    assert omega and omega[0]["verdict"] == "skipped"
    assert omega[0]["hypothesis_met"] is False


def test_verify_checks_subset(tmp_path):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "group:c4", "kind": "group", "builtin": "c4"},
    ])
    report = tmp_path / "rep.jsonl"
    assert main(["verify", "--corpus", man, "--checks",
                 "profile-consistency,laue", "--report", str(report)]) == 0
    recs = [json.loads(line) for line in report.read_text().splitlines()]
    assert {r["check"] for r in recs} == {"profile-consistency", "laue"}


def test_verify_repeated_check_prints_one_row(tmp_path, capsys):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "ring:z9", "kind": "ring", "builtin": "z9"},
        {"id": "group:q8", "kind": "group", "builtin": "q8"},
    ])
    assert main(["verify", "--corpus", man, "--checks", "sylow-rank,sylow-rank"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[1:-1]] == ["sylow-rank"]
    assert out[-1].startswith("1 reports")


def test_verify_capped_ring_becomes_skips(tmp_path):
    """A ring past the table cap gets a skip line per task, and the batch
    still writes every line of the other entries."""
    man = write_manifest(tmp_path / "m.json", [
        {"id": "ring:z9", "kind": "ring", "builtin": "z9"},
        {"id": "ring:big", "kind": "ring", "builtin": "zero:2:10"},
    ])
    report = tmp_path / "rep.jsonl"
    assert main(["verify", "--corpus", man, "--report", str(report)]) == 0
    recs = [json.loads(line) for line in report.read_text().splitlines()]
    assert len(recs) == 26
    big = [r for r in recs if r["instance"] == "ring:big"]
    assert len(big) == 17  # 7 single-line checks and 10 torsion levels
    assert {(r["verdict"], r["bound"]) for r in big} == {
        ("skipped", "ring tables capped at 729 elements")}


def test_budget_error_becomes_a_skip(monkeypatch):
    monkeypatch.setattr(morphisms, "BATCH_BUDGET", 1)
    entry = CorpusEntry("group:c4", "group", builtin_group("c4"))
    assert json.loads(run_check(entry, "laue", "an002")) == {
        "check": "laue", "instance": "group:c4/an002", "hypothesis_met": False,
        "computed": {}, "bound": "derivation search space exceeds the batch budget",
        "verdict": "skipped"}


@pytest.mark.parametrize("label", ["an-1", "an1", "an999", "anx"])
def test_module_labels_no_sweep_issues_are_refused(label):
    # q8 has 5 abelian normal subgroups, swept as an000..an004; "an-1" used
    # to check the last one, "an1" the second under a second id, and the
    # other two escaped as IndexError and ValueError
    entry = CorpusEntry("group:q8", "group", builtin_group("q8"))
    with pytest.raises(AlgebraError, match=f"unknown module label '{label}'"):
        run_check(entry, "laue", label)


def test_swept_module_labels_resolve_in_lattice_order():
    G = builtin_group("q8")
    labels = verify._module_sweep(G)
    assert labels == [f"an{i:03d}" for i in range(5)]
    assert [verify._module_by_label(G, label) for label in labels] == groups.abelian_normal_subgroups(G)
    assert verify._module_by_label(G, "center") == groups.center(G)


def test_listing_refused_by_a_budget_costs_one_skip(tmp_path):
    """C2^8's subgroup lattice is past its entries budget, so its Laue modules
    cannot be listed: that check writes one skip on the entry's own id, and
    the batch still writes every other line."""
    man = write_manifest(tmp_path / "m.json", [
        {"id": "group:c9", "kind": "group", "builtin": "c9"},
        {"id": "group:c2^8", "kind": "group", "builtin": "c2xc2xc2xc2xc2xc2xc2xc2"},
    ])
    report = tmp_path / "rep.jsonl"
    assert main(["verify", "--corpus", man, "--report", str(report)]) == 0
    recs = [json.loads(line) for line in report.read_text().splitlines()]
    big = [r for r in recs if r["instance"].startswith("group:c2^8")]
    assert [r for r in big if r["check"] == "laue"] == [{
        "check": "laue", "instance": "group:c2^8", "hypothesis_met": False,
        "computed": {}, "bound": "subgroup lattice exceeds 531441 entries",
        "verdict": "skipped"}]
    assert len(recs) == 37 and len(big) == 16
    assert not any(r["verdict"] == "fail" for r in recs)


def test_listing_refusal_is_carried_on_its_task_and_searched_once(monkeypatch):
    """The task keeps the refusal's skip line, not the exception, whose
    traceback would hold the interrupted search, and the run writes that line
    without listing C2^8's Laue modules a second time."""
    G = builtin_group("c2xc2xc2xc2xc2xc2xc2xc2")
    searches, tasks = [], []
    enumerate_subgroups, build = groups.enumerate_subgroups, cli.build_tasks

    def spy(H):
        searches.append(H.n)
        return enumerate_subgroups(H)

    def kept(*args):
        tasks.extend(build(*args))
        return tasks
    monkeypatch.setattr(groups, "enumerate_subgroups", spy)
    monkeypatch.setattr(cli, "build_tasks", kept)
    lines = run_verification([CorpusEntry("group:c2^8", "group", G)], ["laue"], 1)
    assert searches.count(256) == 1
    assert tasks == [("group:c2^8", "laue", skipped("subgroup lattice exceeds 531441 entries"))]
    (_, _, refusal), = tasks
    assert not any(isinstance(v, BaseException) for v in [refusal, *vars(refusal).values()])
    assert [json.loads(line)["bound"] for line in lines] == ["subgroup lattice exceeds 531441 entries"]


def test_each_check_name_is_written_once_in_src():
    src = Path(cli.__file__).parent
    written = Counter(node.value for path in src.rglob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Constant) and node.value in CHECKS)
    assert written == Counter(ALL_CHECKS)


def test_verify_unknown_check(tmp_path, capsys):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "group:c4", "kind": "group", "builtin": "c4"},
    ])
    assert main(["verify", "--corpus", man, "--checks", "bogus"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_verify_jobs_reproducible(tmp_path):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "ring:3z27", "kind": "ring", "builtin": "3z27"},
        {"id": "ring:z4", "kind": "ring", "builtin": "z4"},
        {"id": "group:d8", "kind": "group", "builtin": "d8"},
        {"id": "group:c9", "kind": "group", "builtin": "c9"},
    ])
    rep1 = tmp_path / "rep1.jsonl"
    rep2 = tmp_path / "rep2.jsonl"
    assert main(["verify", "--corpus", man, "--report", str(rep1),
                 "--jobs", "1"]) == 0
    assert main(["verify", "--corpus", man, "--report", str(rep2),
                 "--jobs", "3"]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()


def test_verify_pool_is_no_larger_than_its_task_list(tmp_path, capsys, monkeypatch):
    # a fork pool starts all max_workers processes at its first task, so
    # --jobs 8 on 3 tasks must ask for 3, --jobs 2 on no task for none, and
    # --jobs 64 on 2 CPUs for 2; the stub pool starts no process
    sizes = []

    class RecordingPool:
        """Records its size and runs every task in this process."""

        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    man = write_manifest(tmp_path / "m.json", [
        {"id": f"ring:{spec}", "kind": "ring", "builtin": spec} for spec in ("z4", "3z27", "trivial")])
    assert main(["verify", "--corpus", man, "--checks", "adjoint-rank", "--jobs", "8"]) == 0
    assert "3 reports, 0 failures" in capsys.readouterr().out
    assert sizes == [3]
    assert main(["verify", "--corpus", man, "--checks", "laue", "--jobs", "2"]) == 0
    assert "0 reports, 0 failures" in capsys.readouterr().out
    assert sizes == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert main(["verify", "--corpus", man, "--checks", "adjoint-rank", "--jobs", "64"]) == 0
    assert "3 reports, 0 failures" in capsys.readouterr().out
    assert sizes == [3, 2]


def _mixed_entries(prefix=""):
    """Fresh objects for two rings and two groups, ids prefixed."""
    return [CorpusEntry(f"{prefix}ring:{spec}", "ring", builtin_ring(spec))
            for spec in ("3z27", "z4")] + \
        [CorpusEntry(f"{prefix}group:{name}", "group", builtin_group(name))
         for name in ("d8", "c9")]


def _memo_of(obj):
    """The `_cache` keys an object holds: every value it derives is kept there."""
    return list(obj._cache)


def test_runner_releases_each_entry_memo_when_the_batch_moves_on(monkeypatch):
    builds = Counter()
    init = AdjointGroup.__init__

    def counting_init(self, ring):
        builds[ring.name] += 1
        init(self, ring)
    monkeypatch.setattr(AdjointGroup, "__init__", counting_init)
    entries = _mixed_entries()
    run_verification(entries, list(ALL_CHECKS), 1)
    for e in entries[:-1]:
        assert _memo_of(e.obj) == [], e.id
    assert _memo_of(entries[-1].obj) != []  # its tasks were the last ones
    # the memo lives until its entry's tasks are done: one circle group per ring
    assert dict(builds) == {e.obj.name: 1 for e in entries if e.kind == "ring"}


def test_back_to_back_runs_match_fresh_runs():
    # the second call starts with no held entry, so the first call's last id,
    # absent from the second corpus, is never looked up; the reference runs
    # each task on fresh objects with no runner state
    for prefix in ("a/", "b/"):
        got = run_verification(_mixed_entries(prefix), list(ALL_CHECKS), 1)
        fresh = {e.id: e for e in _mixed_entries(prefix)}
        assert got == [run_check(fresh[eid], check, param)
                       for eid, check, param in build_tasks(list(fresh.values()), ALL_CHECKS)]


def test_pool_workers_release_memos_with_the_same_report():
    serial = run_verification(_mixed_entries(), list(ALL_CHECKS), 1)
    assert run_verification(_mixed_entries(), list(ALL_CHECKS), 2) == serial


def test_annihilator_ideal_reports_both_readings_without_a_flag(tmp_path, capsys):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "ring:4z16", "kind": "ring", "builtin": "4z16"},
    ])
    report = tmp_path / "rep.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corpus", man, "--annihilator-omega", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --annihilator-omega" in capsys.readouterr().err
    assert main(["verify", "--corpus", man, "--checks", "annihilator-ideal",
                 "--report", str(report)]) == 0
    rec = json.loads(report.read_text().splitlines()[0])
    assert set(rec["computed"]["settings"]) == {"1", "2"}
    assert rec["computed"]["selected_omega"] == 1
    assert rec["computed"]["settings_diverge"] is True


def test_run_verification_ignores_its_flags_argument():
    assert run_verification(_mixed_entries(), list(ALL_CHECKS), 1, {"annihilator_omega": 2}) == \
        run_verification(_mixed_entries(), list(ALL_CHECKS), 1)


@pytest.mark.parametrize("args, message", [
    (["--checks", ""], "--checks names no check"),
    (["--checks", ","], "--checks names no check"),
    (["--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["--jobs", "-3"], "--jobs must be at least 1, got -3"),
])
def test_verify_refuses_no_checks_and_no_workers(tmp_path, capsys, args, message):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "group:c4", "kind": "group", "builtin": "c4"},
    ])
    assert main(["verify", "--corpus", man, *args]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n" and out == ""


def test_verify_report_verdict_fail_exit(tmp_path, capsys, monkeypatch):
    # runners look their check up by name at call time, so they see the patch
    monkeypatch.setattr(verify, "check_profile_consistency",
                        lambda G: verdict({}, "b", "forced"))
    man = write_manifest(tmp_path / "m.json", [{"id": "group:q8", "kind": "group",
                                                "builtin": "q8"}])
    report = tmp_path / "rep.jsonl"
    assert main(["verify", "--corpus", man, "--checks", "profile-consistency",
                 "--report", str(report)]) == 1
    assert [json.loads(line) for line in report.read_text().splitlines()] == [{
        "check": "profile-consistency", "instance": "group:q8", "hypothesis_met": True,
        "computed": {}, "bound": "b", "verdict": "fail", "witness": "forced"}]
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["profile-consistency", "0", "1", "0"]
    assert out[-1].startswith("1 reports, 1 failures")


def test_build_tasks_deterministic(corpus):
    entries = corpus[:5]
    t1 = build_tasks(entries, ["omega-correspondence", "quotient-p-nil"])
    t2 = build_tasks(entries, ["quotient-p-nil", "omega-correspondence"])
    assert t1 == t2  # order comes from the registry, not the request


def test_build_tasks_full_corpus_pinned(corpus):
    # sha256 of the task list the if/elif dispatcher built before the registry,
    # which gave Laue modules by index: label anNNN is index NNN
    tasks = [(eid, check, int(param[2:]) if check == "laue" else param)
             for eid, check, param in build_tasks(corpus, ALL_CHECKS)]
    assert len(tasks) == 9957
    assert sum(check == "laue" for _, check, _ in tasks) == 485
    assert hashlib.sha256(json.dumps(tasks).encode()).hexdigest() == (
        "f6eedf1da44636d40ab15387fe4b1f366bf20b6968f6e08c8999f3b09d4aa8ac")


def test_check_registry_order_and_unknown_check(corpus):
    kinds = [CHECKS[name].kind for name in ALL_CHECKS]
    assert kinds == ["ring"] * 8 + ["group"] * 11
    assert ALL_CHECKS[0] == "omega-correspondence" and ALL_CHECKS[7] == "sylow-rank"
    assert ALL_CHECKS[8] == "profile-consistency" and ALL_CHECKS[-1] == "der-subring-p-nil"
    with pytest.raises(AlgebraError, match="unknown check"):
        run_check(corpus[0], "no-such-check", None)


def test_only_module_lines_name_their_module_in_the_instance(tmp_path):
    entries = load_manifest(write_manifest(tmp_path / "m.json", [
        {"id": "ring:z9", "kind": "ring", "builtin": "z9"},
        *({"id": f"group:{name}", "kind": "group", "builtin": name}
          for name in ("c4", "q8", "c6", "es27")),
    ]))
    tasks = build_tasks(entries, ALL_CHECKS)
    lines = [json.loads(line) for line in run_verification(entries, ALL_CHECKS, 1)]
    modules = Counter()
    for (eid, check, param), rec in zip(tasks, lines, strict=True):
        if check in ("laue", "der-subring-p-nil"):
            assert isinstance(param, str) and rec["instance"] == f"{eid}/{param}"
            modules[check] += 1
        else:
            assert rec["instance"] == eid
    # laue sweeps every abelian normal subgroup (3 + 5 + 4 + 6); derivation
    # checks skip c6, and es27 is past MODULE_SWEEP_CAP, so it has only the
    # six named modules (9 + 11 + 0 + 6)
    assert modules == {"laue": 18, "der-subring-p-nil": 26}


def test_rebased_rings_are_pinned(monkeypatch):
    """Report lines are mostly isomorphism invariants: a different generating
    set or basis reorders every hom, der and quotient tensor without changing
    a line.  This pins each `to_finite_ring` result of the corpus build and of
    the checks that rebase rings."""
    calls = []

    def spy(*args, **kwargs):
        ring, at = to_finite_ring(*args, **kwargs)
        calls.append((ring.p, list(ring.exps), ring.tensor.tolist(), at.tolist()))
        return ring, at

    to_finite_ring = rings.to_finite_ring
    monkeypatch.setattr(rings, "to_finite_ring", spy)
    monkeypatch.setattr(morphisms, "to_finite_ring", spy)
    run_verification(default_corpus(), ["quotient-p-nil", "annihilator-ideal",
                                        "central-aut", "der-subring-p-nil"], 1)
    assert len(calls) == 760
    assert hashlib.sha256(json.dumps(calls).encode()).hexdigest() == (
        "ea538bcb77848ab7e5ad2275708026a83e1dec947ce40d837872fdfbab37df1b")


def test_default_corpus_shape(corpus):
    entries = corpus
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    kinds = {e.kind for e in entries}
    assert kinds == {"ring", "group"}
    assert "ring:trivial" in ids
    assert "ring:3z27" in ids
    assert "ring:z9" in ids
    assert "group:q8" in ids and "group:c9xc9" in ids
    groups = [e for e in entries if e.kind == "group"]
    assert len(groups) == 57
    small = [e for e in groups if e.obj.n <= 16]
    assert len(small) == 42


@pytest.mark.parametrize("argv, message", [
    *((["group-info", name], f"unknown group name {name!r}")
      for name in ("c1_0", "d0_8", "c+4", "c 4", "c٤", "es_p3_٧", "c4\n")),
    *((["ring-info", spec], f"unknown ring spec {spec!r}")
      for spec in ("z٩", "z1_0", "3z2_7", "zero:3:1_1", "zero:٣:1", "z+9")),
    *((["enumerate-rings", "--p", "2", "--exps", exps],
       f"--exps must be comma-separated integers, got {exps!r}")
      for exps in ("1_0", "+1", " 1", "1, 1", "١", "1\n")),
])
def test_numerals_are_ascii_digits_only(tmp_path, capsys, argv, message):
    """int() alone takes underscores, signs, spaces and other scripts' digits:
    c1_0 built C10, z with an Arabic-Indic nine built z9 and --exps 1_0
    enumerated type (10,) into 1024 files."""
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)] if argv[0] == "enumerate-rings" else argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
