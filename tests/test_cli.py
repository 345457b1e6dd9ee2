"""End-to-end tests for the command line interface."""

import ast
import hashlib
import json
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from adjrings import cli, morphisms, verify
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
from adjrings.report import verdict
from adjrings.verify import CHECKS, GROUP_CHECKS, RING_CHECKS


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


def test_enumerate_rings_budget(tmp_path, capsys):
    code = main(["enumerate-rings", "--p", "2", "--exps", "1,1,1",
                 "--budget", "100", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err and "100" in err


@pytest.mark.parametrize("exps", ["x", "-1"])
def test_enumerate_rings_bad_exps_exit_2(tmp_path, capsys, exps):
    code = main(["enumerate-rings", "--p", "7", "--exps", exps,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["--p", "7", "--exps", "-1"],
    ["--p", "4", "--exps", "1"],
    ["--p", "2", "--exps", "1,1,1", "--budget", "100"],
])
def test_enumerate_rings_refusal_leaves_no_out_dir(tmp_path, capsys, args):
    out = tmp_path / "x"
    assert main(["enumerate-rings", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_enumerate_rings_keeping_no_ring_still_creates_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._ENUM_FILTERS, "p-nil", lambda ring: False)
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
    with pytest.raises(Exception):
        builtin_ring("q8")


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
    assert json.loads(run_check(entry, "laue", 2, {})) == {
        "check": "laue", "instance": "group:c4/an002", "hypothesis_met": False,
        "computed": {}, "bound": "derivation search space exceeds the batch budget",
        "verdict": "skipped"}


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


def _mixed_entries(prefix=""):
    """Fresh objects for two rings and two groups, ids prefixed."""
    return [CorpusEntry(f"{prefix}ring:{spec}", "ring", builtin_ring(spec))
            for spec in ("3z27", "z4")] + \
        [CorpusEntry(f"{prefix}group:{name}", "group", builtin_group(name))
         for name in ("d8", "c9")]


def _memo_of(obj):
    """The `_cache` keys and the `cached_property` values an object holds."""
    held = [name for name, attr in vars(type(obj)).items()
            if isinstance(attr, cached_property) and name in obj.__dict__]
    return list(obj._cache), held


def test_runner_releases_each_entry_memo_when_the_batch_moves_on(monkeypatch):
    builds = Counter()
    init = AdjointGroup.__init__

    def counting_init(self, ring):
        builds[ring.name] += 1
        init(self, ring)
    monkeypatch.setattr(AdjointGroup, "__init__", counting_init)
    entries = _mixed_entries()
    run_verification(entries, list(ALL_CHECKS), 1, {})
    for e in entries[:-1]:
        assert _memo_of(e.obj) == ([], []), e.id
    assert _memo_of(entries[-1].obj) != ([], [])  # its tasks were the last ones
    # the memo lives until its entry's tasks are done: one circle group per ring
    assert dict(builds) == {e.obj.name: 1 for e in entries if e.kind == "ring"}


def test_back_to_back_runs_match_fresh_runs():
    # the second call starts with no held entry, so the first call's last id,
    # absent from the second corpus, is never looked up; the reference runs
    # each task on fresh objects with no runner state
    for prefix in ("a/", "b/"):
        got = run_verification(_mixed_entries(prefix), list(ALL_CHECKS), 1, {})
        fresh = {e.id: e for e in _mixed_entries(prefix)}
        assert got == [run_check(fresh[eid], check, param, {})
                       for eid, check, param in build_tasks(list(fresh.values()), ALL_CHECKS)]


def test_pool_workers_release_memos_with_the_same_report():
    serial = run_verification(_mixed_entries(), list(ALL_CHECKS), 1, {})
    assert run_verification(_mixed_entries(), list(ALL_CHECKS), 2, {}) == serial


def test_verify_annihilator_omega_flag(tmp_path):
    man = write_manifest(tmp_path / "m.json", [
        {"id": "ring:4z16", "kind": "ring", "builtin": "4z16"},
    ])
    report = tmp_path / "rep.jsonl"
    assert main(["verify", "--corpus", man, "--checks", "annihilator-ideal",
                 "--annihilator-omega", "2", "--report", str(report)]) == 0
    rec = json.loads(report.read_text().splitlines()[0])
    assert rec["computed"]["selected_omega"] == 2
    assert rec["computed"]["settings_diverge"] is True


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
    # sha256 of the task list the if/elif dispatcher built before the registry
    tasks = build_tasks(corpus, ALL_CHECKS)
    assert len(tasks) == 9957
    assert hashlib.sha256(json.dumps(tasks).encode()).hexdigest() == (
        "f6eedf1da44636d40ab15387fe4b1f366bf20b6968f6e08c8999f3b09d4aa8ac")


def test_check_registry_order_and_unknown_check(corpus):
    assert ALL_CHECKS == RING_CHECKS + GROUP_CHECKS
    assert RING_CHECKS[0] == "omega-correspondence" and RING_CHECKS[-1] == "sylow-rank"
    assert GROUP_CHECKS[0] == "profile-consistency" and GROUP_CHECKS[-1] == "der-subring-p-nil"
    with pytest.raises(AlgebraError, match="unknown check"):
        run_check(corpus[0], "no-such-check", None, {})


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
