"""Acceptance gate: twelve structural criteria over the default corpus.

Each test is one criterion; `pytest -v` prints one pass/fail line per
criterion.  A single full-corpus verification run feeds most criteria;
determinism and the spot anchors get dedicated runs.
"""

import json
import time

import pytest

from adjrings.adjoint import adjoint_group, omega_circle_set
from adjrings.cli import ALL_CHECKS, default_corpus, main, run_verification
from adjrings.groups import abelian_normal_subgroups, builtin_group, center, prime_of
from adjrings.morphisms import aut_group, aut_n, check_laue
from adjrings.rings import multiples_ring


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


@pytest.fixture(scope="module")
def report(corpus):
    lines = run_verification(corpus, list(ALL_CHECKS), jobs=4)
    records = [json.loads(line) for line in lines]
    by_check = {}
    for rec in records:
        by_check.setdefault(rec["check"], []).append(rec)
    return by_check


def rings_of(corpus):
    return [e for e in corpus if e.kind == "ring"]


def groups_of(corpus):
    return [e for e in corpus if e.kind == "group"]


def one_sided_p_nil_ids(corpus):
    return {e.id for e in rings_of(corpus)
            if e.obj.is_left_p_nil() or e.obj.is_right_p_nil()}


def p_group_ids(corpus, max_order=None):
    out = set()
    for e in groups_of(corpus):
        if e.obj.n > 1 and prime_of(e.obj) is not None:
            if max_order is None or e.obj.n <= max_order:
                out.add(e.id)
    return out


def verdicts(by_check, check):
    return {rec["instance"]: rec["verdict"] for rec in by_check[check]}


def no_failures(by_check, check):
    bad = [rec for rec in by_check[check] if rec["verdict"] == "fail"]
    assert not bad, f"{check} failures: {[r['instance'] for r in bad]}"


def test_criterion_01_laue_small_groups(corpus):
    started = time.perf_counter()
    checked = 0
    for e in groups_of(corpus):
        if e.obj.n > 16:
            continue
        for i, N in enumerate(abelian_normal_subgroups(e.obj)):
            rep = check_laue(e.obj, N)
            assert rep.verdict == "pass", f"{e.id}/an{i:03d}"
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked > 100
    assert elapsed < 60.0
    print(f"criterion 1: {checked} (group, module) pairs in {elapsed:.1f}s")


def test_criterion_02_omega_correspondence(corpus, report):
    no_failures(report, "omega-correspondence")
    nil_ids = one_sided_p_nil_ids(corpus)
    got = verdicts(report, "omega-correspondence")
    for e in rings_of(corpus):
        expected = "pass" if e.id in nil_ids else "skipped"
        assert got[e.id] == expected, e.id
    for required in ("ring:3z27", "ring:3z81", "ring:5z125"):
        assert got[required] == "pass"
    for p in (2, 3, 5):
        assert any(i.startswith(f"ring:enum_p{p}_") for i in nil_ids)
    print(f"criterion 2: {sum(v == 'pass' for v in got.values())} rings verified")


def test_criterion_03_p_central_adjoint(corpus, report):
    no_failures(report, "p-central-adjoint")
    got = verdicts(report, "p-central-adjoint")
    two_sided = [e.id for e in rings_of(corpus)
                 if e.obj.is_left_p_nil() and e.obj.is_right_p_nil()]
    assert two_sided
    for eid in two_sided:
        assert got[eid] == "pass", eid
    print(f"criterion 3: {len(two_sided)} p-nil rings have p-central adjoints")


def test_criterion_04_nilpotency_bound_and_probe(corpus, report):
    no_failures(report, "nilpotency-bound")
    got = verdicts(report, "nilpotency-bound")
    for eid in one_sided_p_nil_ids(corpus):
        assert got[eid] == "pass", eid
    probes = report["nilpotency-probe"]
    assert all(rec["verdict"] in ("pass", "skipped") for rec in probes)
    counterexamples = sum(
        1 for rec in probes if rec["hypothesis_met"]
        and not (rec["computed"]["ring_within"] and rec["computed"]["group_within"]))
    print(f"criterion 4: bound holds everywhere; sharper-bound probe found "
          f"{counterexamples} counterexamples")


def test_criterion_05_quotient_and_annihilator(report):
    no_failures(report, "quotient-p-nil")
    assert any(rec["verdict"] == "pass" for rec in report["quotient-p-nil"])
    no_failures(report, "annihilator-ideal")
    divergent = 0
    met = 0
    for rec in report["annihilator-ideal"]:
        if not rec["hypothesis_met"]:
            continue
        met += 1
        settings = rec["computed"]["settings"]
        for key in ("1", "2"):
            assert settings[key]["nontrivial"], rec["instance"]
            assert settings[key]["quotient_left_p_nil"], rec["instance"]
        divergent += rec["computed"]["settings_diverge"]
    assert met > 0
    assert divergent >= 1  # both torsion readings are genuinely exercised
    print(f"criterion 5: {met} rings, both omega settings nontrivial, "
          f"{divergent} divergences surfaced")


def test_criterion_06_rank_equalities(corpus, report):
    no_failures(report, "adjoint-rank")
    got = verdicts(report, "adjoint-rank")
    nil_ids = one_sided_p_nil_ids(corpus)
    for e in rings_of(corpus):
        if e.id in nil_ids and e.obj.order <= 81:
            assert got[e.id] == "pass", e.id
    for rec in report["adjoint-rank"]:
        if rec["hypothesis_met"]:
            c = rec["computed"]
            assert c["rank"] == c["d_plus"] == c["d_omega1"], rec["instance"]
    no_failures(report, "sylow-rank")
    sylow = verdicts(report, "sylow-rank")
    assert all(v == "pass" for v in sylow.values())
    assert len(sylow) == len(rings_of(corpus))
    assert sylow["ring:z4"] == "pass" and sylow["ring:z9"] == "pass"
    print(f"criterion 6: rank equality on {sum(v == 'pass' for v in got.values())} "
          f"rings, sylow bound on all {len(sylow)}")


def test_criterion_07_central_aut_parts(corpus, report):
    no_failures(report, "central-aut")
    got = verdicts(report, "central-aut")
    for eid in p_group_ids(corpus, max_order=32):
        assert got[eid] == "pass", eid
    for rec in report["central-aut"]:
        if rec["hypothesis_met"]:
            parts = rec["computed"]["parts"]
            assert parts["hom_ring_right_p_nil"] is True, rec["instance"]
            assert parts["torsion_layers"] is True, rec["instance"]
            assert parts["rank"]["value"] == parts["rank"]["expected"], rec["instance"]
    print(f"criterion 7: all five parts on {sum(v == 'pass' for v in got.values())} "
          f"p-groups")


def test_criterion_08_aut_exponent(corpus, report):
    no_failures(report, "aut-exponent")
    got = verdicts(report, "aut-exponent")
    for eid in p_group_ids(corpus, max_order=32):
        assert got[eid] == "pass", eid
    print(f"criterion 8: exponent bound on {sum(v == 'pass' for v in got.values())} "
          f"groups")


def test_criterion_09_center_exponent_and_stability(corpus, report):
    for check in ("aut-center-exponent", "frattini-aut-class", "central-aut-class"):
        no_failures(report, check)
    all_p = p_group_ids(corpus)
    got_center = verdicts(report, "aut-center-exponent")
    got_frattini = verdicts(report, "frattini-aut-class")
    for eid in all_p:
        assert got_center[eid] == "pass", eid
        assert got_frattini[eid] == "pass", eid
    cls = report["central-aut-class"]
    assert any(rec["hypothesis_met"] for rec in cls)
    for rec in cls:
        if rec["hypothesis_met"]:
            assert rec["verdict"] == "pass", rec["instance"]
    probes = [rec for rec in report["sylow-center-probe"] if rec["hypothesis_met"]]
    assert probes and all(rec["verdict"] != "fail" for rec in probes)
    violations = sum(rec["computed"]["violations"] for rec in probes)
    print(f"criterion 9: {len(all_p)} groups; odd-p center probe on "
          f"{len(probes)} groups, {violations} violations")


def test_criterion_10_generator_bounds(corpus, report):
    no_failures(report, "aut-gen-bound-abelian")
    no_failures(report, "aut-gen-bound")
    got_ab = verdicts(report, "aut-gen-bound-abelian")
    abelian = [e.id for e in groups_of(corpus)
               if e.id in p_group_ids(corpus, max_order=81) and e.obj.is_abelian()]
    assert abelian
    for eid in abelian:
        assert got_ab[eid] == "pass", eid
    got = verdicts(report, "aut-gen-bound")
    for eid in p_group_ids(corpus, max_order=32):
        assert got[eid] == "pass", eid
    print(f"criterion 10: abelian bound on {len(abelian)} groups, general bound on "
          f"{sum(v == 'pass' for v in got.values())}")


def test_criterion_11_deterministic_reports(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"id": "ring:3z27", "kind": "ring", "builtin": "3z27"},
        {"id": "ring:z4", "kind": "ring", "builtin": "z4"},
        {"id": "ring:zero22", "kind": "ring", "builtin": "zero:2:1.1"},
        {"id": "group:q8", "kind": "group", "builtin": "q8"},
        {"id": "group:c3xc3", "kind": "group", "builtin": "c3xc3"},
        {"id": "group:d12", "kind": "group", "builtin": "d12"},
    ]}))
    rep1 = tmp_path / "rep1.jsonl"
    rep4 = tmp_path / "rep4.jsonl"
    assert main(["verify", "--corpus", str(manifest), "--jobs", "1",
                 "--report", str(rep1)]) == 0
    assert main(["verify", "--corpus", str(manifest), "--jobs", "4",
                 "--report", str(rep4)]) == 0
    b1, b4 = rep1.read_bytes(), rep4.read_bytes()
    assert b1 and b1 == b4
    print(f"criterion 11: {len(b1)} report bytes identical across --jobs 1/4")


def test_criterion_12_spot_anchors():
    R = multiples_ring(3, 27)
    A = adjoint_group(R)
    assert A.order == 9
    assert A.group.is_abelian() and A.group.exponent() == 9  # cyclic of order 9
    layer1 = {3 * c % 27 for c in R.tables.coords[omega_circle_set(R, 1), 0].tolist()}
    assert layer1 == {0, 9, 18}
    q8 = builtin_group("q8")
    stab, _ = aut_n(q8, center(q8))
    assert stab.n == 4 and stab.exponent() == 2  # Klein four-group
    assert aut_group(q8).order == 24
    print("criterion 12: 3Z/27Z adjoint, Aut_Z(Q8), |Aut(Q8)| anchors verified")
