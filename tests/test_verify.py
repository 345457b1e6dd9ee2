"""Checks against hand-verified small instances."""

import json

import numpy as np
import pytest

from adjrings import verify
from adjrings.cli import CHECKS, DEFAULT_GROUP_NAMES, CorpusEntry, run_check
from adjrings.errors import InvalidArgumentError, InvalidStructureError
from adjrings.groups import (
    Subgroup,
    agemo,
    builtin_group,
    cyclic_group,
    full_subgroup,
    lower_central_series,
    lower_p_central_series,
    prime_of,
    quotient_group,
    trivial_subgroup,
    upper_central_series,
)
from adjrings.rings import FiniteRing, multiples_ring, unital_ring, zero_ring
from adjrings.verify import (
    GroupProfile,
    RingProfile,
    _section_exponent_log,
    check_adjoint_rank,
    check_annihilator_ideal,
    check_aut_center_exponent,
    check_aut_exponent,
    check_aut_gen_bound,
    check_aut_gen_bound_abelian,
    check_central_aut,
    check_central_aut_class,
    check_der_subring_p_nil,
    check_frattini_aut_class,
    check_nilpotency_bound,
    check_omega_correspondence,
    check_p_central_adjoint,
    check_profile_consistency,
    check_quotient_p_nil,
    check_sylow_rank,
    group_profile,
    probe_sylow_center,
    probe_two_nil_improvement,
    ring_profile,
)

R27 = multiples_ring(3, 27)
R16 = multiples_ring(4, 16)


def test_ring_profile_3z27():
    prof = ring_profile(R27)
    assert prof == RingProfile(order=9, p=3, m=2, d_plus=1,
                               left_p_nil=True, right_p_nil=True, nil_class=2)


def test_ring_profile_4z16_zero_multiplication():
    # products of multiples of 4 vanish mod 16, so the ring has class 1
    prof = ring_profile(R16)
    assert prof.m == 2 and prof.nil_class == 1 and prof.left_p_nil


def test_ring_profile_trivial():
    prof = ring_profile(zero_ring(2, []))
    assert prof.order == 1 and prof.m == 0 and prof.nil_class == 0


def test_group_profile_q8():
    prof = group_profile(builtin_group("q8"))
    assert prof == GroupProfile(order=8, p=2, c=2, r=1, s=1, t=1,
                                d=2, d_prime=1, r1=2, s1=2)


def test_group_profile_c9():
    prof = group_profile(cyclic_group(9))
    assert (prof.c, prof.r, prof.s, prof.t, prof.d, prof.d_prime) == (1, 2, 2, 2, 1, 1)
    assert prof.consistent()


def test_group_profile_rejects_non_p_group():
    with pytest.raises(InvalidStructureError):
        group_profile(builtin_group("c6"))
    with pytest.raises(InvalidStructureError):
        group_profile(builtin_group("c1"))


def quotient_exponent_log(upper, lower, p):
    """Oracle: log_p of the exponent of upper/lower, built as its own table."""
    H, lift = upper.as_group(), upper.elems
    pos = {x: i for i, x in enumerate(lift)}
    Q, _ = quotient_group(H, Subgroup(H, tuple(sorted(pos[x] for x in lower.elems))))
    k = 0
    while p ** k < Q.exponent():
        k += 1
    assert p ** k == Q.exponent()
    return k


def test_section_exponents_match_the_quotient_oracle():
    sections = 0
    for name in DEFAULT_GROUP_NAMES:
        G = builtin_group(name)
        p = prime_of(G)
        if p is None:
            continue
        series = (lower_central_series(G), upper_central_series(G)[::-1],
                  lower_p_central_series(G), [full_subgroup(G), trivial_subgroup(G)])
        for chain in series:
            for upper, lower in zip(chain, chain[1:]):
                expected = quotient_exponent_log(upper, lower, p)
                assert _section_exponent_log(upper, lower, p) == expected, (name, upper.order)
                sections += 1
    assert sections > 200


@pytest.mark.parametrize("ring", [
    zero_ring(7, [2, 1]),
    FiniteRing(7, [2, 1], [[[7, 0], [0, 0]], [[0, 0], [0, 0]]], name="e0e0_7e0"),
], ids=lambda ring: ring.name)
def test_order_343_rings_run_every_ring_check(ring):
    """Adjoint groups of order 7^3 fit under the group-order cap: every ring
    check runs on these two-sided 7-nil rings through run_check, and the one
    skip is the p = 2 probe's hypothesis."""
    prof = ring_profile(ring)
    assert prof.order == 343 and prof.left_p_nil and prof.right_p_nil
    entry = CorpusEntry(ring.name, "ring", ring)
    ring_checks = [name for name, check in CHECKS.items() if check.kind == "ring"]
    lines = [json.loads(run_check(entry, name, param))
             for name in ring_checks for param in CHECKS[name].params(ring)]
    assert [rec["check"] for rec in lines if not rec["hypothesis_met"]] == ["nilpotency-probe"]
    assert {rec["check"] for rec in lines} == set(ring_checks)
    assert not any("exceeds" in rec["bound"] for rec in lines)
    assert all(rec["verdict"] == "pass" for rec in lines if rec["hypothesis_met"])


def test_order_625_ring_runs_every_ring_check():
    """Ring tables share the 729 group-order cap: a nonzero left and right
    p-nil ring of order 625 writes 10 lines through run_check, nine passes
    and the p = 2 probe's skip."""
    ring = FiniteRing(5, (3, 1), [[[5, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert ring.order == 625 and ring.tensor.any()
    assert ring.is_left_p_nil() and ring.is_right_p_nil()
    entry = CorpusEntry("ring:r625", "ring", ring)
    lines = [json.loads(run_check(entry, name, param))
             for name, check in CHECKS.items() if check.kind == "ring"
             for param in check.params(ring)]
    assert len(lines) == 10
    assert [rec["verdict"] for rec in lines].count("pass") == 9
    assert [(rec["check"], rec["bound"]) for rec in lines if rec["verdict"] != "pass"] == [
        ("nilpotency-probe", "probe applies to p-nil 2-rings")]


@pytest.mark.parametrize("check", ["aut-gen-bound", "aut-gen-bound-abelian"])
def test_c243_generator_bounds_pass_without_flags(check):
    # the lattices of C243 and of its power subgroup, the automorphism search
    # (162 candidates of 243 entries) and the lattice of Aut(C243)'s order-81
    # Sylow subgroup all fit their entries budgets, so both checks give verdicts
    entry = CorpusEntry("group:c243", "group", builtin_group("c243"))
    rec = json.loads(run_check(entry, check, None))
    got = rec["computed"]
    assert (rec["verdict"], got["aut_order"], got["sylow_order"], got["max_d"]) == (
        "pass", 162, 81, 1)


def test_omega_correspondence_3z27():
    rep = check_omega_correspondence(R27)
    assert rep.verdict == "pass"
    layers = rep.computed["layers"]
    assert layers["1"] == {"size": 3, "subgroup_closed": True}
    assert layers["2"]["size"] == 9


def test_omega_correspondence_fails_a_layer_not_closed_under_circle(monkeypatch):
    # {0, 3} holds 0, and both layer readings agree on it, but 3 o 3 = 15 lies
    # outside it: only the subgroup test can fail this layer
    ring = multiples_ring(3, 27)
    mask = np.zeros(ring.order, dtype=bool)
    mask[[0, 1]] = True
    monkeypatch.setattr(verify, "omega_circle_set", lambda R, n: mask)
    monkeypatch.setattr(verify, "omega_additive", lambda R, n: mask)
    rec = json.loads(run_check(CorpusEntry("ring:3z27", "ring", ring), "omega-correspondence", None))
    assert (rec["verdict"], rec["witness"]) == ("fail", "n=1, set is not a subgroup")
    assert rec["computed"]["layers"] == {"1": {"size": 2, "subgroup_closed": False}}


def test_omega_correspondence_skips_unital():
    rep = check_omega_correspondence(unital_ring(9))
    assert rep.verdict == "skipped" and not rep.hypothesis_met


def test_omega_correspondence_zero_ring():
    assert check_omega_correspondence(zero_ring(3, [1, 1])).verdict == "pass"
    assert check_omega_correspondence(zero_ring(2, [])).verdict == "pass"


def test_p_central_adjoint_anchors():
    assert check_p_central_adjoint(R16).verdict == "pass"
    rep = check_p_central_adjoint(R27)
    assert rep.verdict == "pass" and rep.computed["kappa"] == 1
    assert check_p_central_adjoint(unital_ring(9)).verdict == "skipped"


def test_nilpotency_bound_anchors():
    rep = check_nilpotency_bound(R27)
    assert rep.verdict == "pass"
    assert rep.computed == {"m": 2, "ring_class": 2, "group_class": 1}
    rep = check_nilpotency_bound(R16)
    assert rep.verdict == "pass" and rep.computed["ring_class"] == 1


def test_two_nil_probe():
    rep = probe_two_nil_improvement(R16)
    assert rep.verdict == "pass"
    assert rep.computed["sharper_bound"] == 2
    assert rep.computed["ring_within"] and rep.computed["group_within"]
    assert probe_two_nil_improvement(R27).verdict == "skipped"


def test_quotient_p_nil_3z27():
    rep = check_quotient_p_nil(R27, 1)
    assert rep.verdict == "pass"
    assert rep.computed == {"n": 1, "quotient_order": 3, "left": True, "right": True}
    with pytest.raises(InvalidArgumentError):
        check_quotient_p_nil(R27, 0)


def test_annihilator_ideal_4z16_divergence():
    # U meets the bottom layer at {0, 8}; the wider p=2 reading takes all of R
    rep = check_annihilator_ideal(R16)
    assert rep.verdict == "pass"
    assert rep.computed["settings"]["1"]["ideal_order"] == 2
    assert rep.computed["settings"]["2"]["ideal_order"] == 4
    assert rep.computed["settings_diverge"]


def test_annihilator_ideal_odd_p_never_diverges():
    rep = check_annihilator_ideal(R27)
    assert rep.verdict == "pass"
    assert rep.computed["settings"]["1"]["ideal_order"] == 3
    assert not rep.computed["settings_diverge"]
    assert check_annihilator_ideal(zero_ring(2, [])).verdict == "skipped"


def test_adjoint_rank_anchors():
    rep = check_adjoint_rank(R27)
    assert rep.verdict == "pass" and rep.computed["rank"] == 1
    rep = check_adjoint_rank(zero_ring(3, [1, 1]))
    assert rep.verdict == "pass"
    assert rep.computed == {"d_plus": 2, "adjoint_order": 9, "rank": 2, "d_omega1": 2}


def test_sylow_rank_unital_z4():
    # only even residues are quasi-invertible in Z/4Z
    rep = check_sylow_rank(unital_ring(4))
    assert rep.verdict == "pass"
    assert rep.computed["sylow_order"] == 2 and rep.computed["sylow_rank"] == 1
    assert not rep.computed["p_nil"]


def test_central_aut_c9():
    rep = check_central_aut(cyclic_group(9))
    assert rep.verdict == "pass"
    parts = rep.computed["parts"]
    assert parts["exponent"] == {"value": 3, "bound": 9}
    assert parts["rank"] == {"value": 1, "expected": 1}
    assert rep.computed["s_order"] == 3


def test_central_aut_q8():
    rep = check_central_aut(builtin_group("q8"))
    assert rep.verdict == "pass"
    parts = rep.computed["parts"]
    assert rep.computed["aut_order"] == 4
    assert parts["exponent"]["value"] == 2
    assert parts["rank"] == {"value": 2, "expected": 2}


def test_central_aut_degenerate_elementary_abelian():
    rep = check_central_aut(builtin_group("c2xc2xc2xc2"))
    assert rep.verdict == "pass" and rep.computed["degenerate"]
    assert rep.computed["aut_order"] == 1


def test_central_aut_class_hypothesis_gate():
    assert check_central_aut_class(builtin_group("q8")).verdict == "pass"
    assert check_central_aut_class(cyclic_group(9)).verdict == "skipped"
    rep = check_central_aut_class(builtin_group("d8"))
    assert rep.verdict == "pass" and rep.computed["class"] == 1


def test_aut_center_exponent_anchors():
    rep = check_aut_center_exponent(builtin_group("q8"))
    assert rep.verdict == "pass" and rep.computed["center_exponent"] == 2
    rep = check_aut_center_exponent(cyclic_group(9))
    assert rep.verdict == "pass"
    assert rep.computed == {"aut_order": 3, "center_exponent": 3, "t": 2}
    assert check_aut_center_exponent(builtin_group("c3xc3")).computed["aut_order"] == 1


def test_sylow_center_probe():
    rep = probe_sylow_center(cyclic_group(9))
    assert rep.verdict == "pass" and rep.computed["violations"] == 0
    assert probe_sylow_center(builtin_group("q8")).verdict == "skipped"
    rep = probe_sylow_center(builtin_group("es27"))
    assert rep.verdict == "pass"
    assert rep.computed == {"sylow_order": 27, "center_order": 3, "violations": 0}


def test_frattini_aut_class_anchors():
    rep = check_frattini_aut_class(cyclic_group(4))
    assert rep.verdict == "pass"
    assert rep.computed["class"] == 1 and rep.computed["series_bound"] == 1
    rep = check_frattini_aut_class(builtin_group("q8"))
    assert rep.verdict == "pass"
    assert rep.computed["r1"] == 2 and rep.computed["s1"] == 2
    assert rep.computed["stable"]
    rep = check_frattini_aut_class(builtin_group("c3xc3"))
    assert rep.verdict == "pass" and rep.computed["aut_order"] == 1


def test_aut_exponent_q8():
    rep = check_aut_exponent(builtin_group("q8"))
    assert rep.verdict == "pass"
    assert rep.computed["coset_exponent"] == 2 and rep.computed["coset_bound"] == 2
    assert rep.computed["sylow_order"] == 8 and rep.computed["sylow_exponent"] == 4
    assert rep.computed["sylow_bound"] == 16


def test_aut_exponent_cyclic():
    rep = check_aut_exponent(cyclic_group(9))
    assert rep.verdict == "pass"
    assert rep.computed["coset_exponent"] == 3 and rep.computed["coset_bound"] == 9
    rep = check_aut_exponent(cyclic_group(3))
    assert rep.verdict == "pass" and rep.computed["coset_bound"] == 1


def test_aut_gen_bound_abelian_anchors():
    rep = check_aut_gen_bound_abelian(builtin_group("c3xc3"))
    assert rep.verdict == "pass"
    assert rep.computed["bound"] == 1 and rep.computed["max_d"] == 1
    assert rep.computed["sylow_order"] == 3
    rep = check_aut_gen_bound_abelian(cyclic_group(4))
    assert rep.verdict == "pass" and rep.computed["bound"] == 1
    assert check_aut_gen_bound_abelian(builtin_group("q8")).verdict == "skipped"
    assert check_aut_gen_bound_abelian(builtin_group("c1")).verdict == "pass"


def test_aut_gen_bound_q8():
    rep = check_aut_gen_bound(builtin_group("q8"))
    assert rep.verdict == "pass"
    assert rep.computed["k"] == 2 and rep.computed["bound"] == 13
    assert rep.computed["max_d"] == 2
    assert check_aut_gen_bound(builtin_group("c1")).verdict == "pass"
    assert check_aut_gen_bound(builtin_group("c6")).verdict == "skipped"


def test_der_subring_p_nil_anchors():
    c8 = cyclic_group(8)
    rep = check_der_subring_p_nil(c8, agemo(c8, 1))
    assert rep.verdict == "pass" and rep.computed["subring_order"] == 2
    d8 = builtin_group("d8")
    rep = check_der_subring_p_nil(d8, Subgroup(d8, (0, 2, 4, 6)))
    assert rep.verdict == "pass" and rep.computed["subring_order"] == 4
    q8 = builtin_group("q8")
    assert check_der_subring_p_nil(q8, trivial_subgroup(q8)).verdict == "pass"
    assert check_der_subring_p_nil(d8, Subgroup(d8, (0, 1))).verdict == "skipped"


def test_profile_consistency():
    for name in ("q8", "d8", "m16", "es27", "sd16"):
        assert check_profile_consistency(builtin_group(name)).verdict == "pass"
    assert check_profile_consistency(builtin_group("c6")).verdict == "skipped"


def test_reports_serialize_to_json():
    for rep in (check_central_aut(builtin_group("q8")),
                check_annihilator_ideal(R16),
                check_omega_correspondence(R27)):
        line = rep.to_json_line()
        assert line.startswith("{") and '"verdict"' in line
