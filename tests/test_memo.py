"""Each instance's derived objects are built once and shared by its checks,
a search its budget refuses memoizes nothing, and `release_memo` leaves
nothing that `memo` stored."""

import gc
import json
import weakref
from functools import cached_property

import pytest

from adjrings import adjoint, groups, morphisms, rings, verify
from adjrings.adjoint import AdjointGroup
from adjrings.cli import CHECKS, CorpusEntry, run_check
from adjrings.errors import BudgetError, InvalidArgumentError
from adjrings.groups import (
    Subgroup,
    abelian_normal_subgroups,
    builtin_group,
    center,
    enumerate_subgroups,
    full_subgroup,
    is_normal,
    release_memo,
    widest_subgroup,
)
from adjrings.morphisms import aut_group
from adjrings.rings import multiples_ring

AUT_CHECKS = {"sylow-center-probe", "aut-exponent", "aut-gen-bound-abelian", "aut-gen-bound"}


def count_inits(monkeypatch, cls) -> list:
    calls = []
    original = cls.__init__

    def counted(self, *args, **kwargs):
        calls.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def run_kind(kind: str, make, names=None) -> list[dict]:
    """One report per registry task of `kind` (only the checks in `names`, if
    given), each run on the object make() returns, through cli.run_check."""
    out = []
    for name, check in CHECKS.items():
        if check.kind == kind and (names is None or name in names):
            for param in check.params(make()):
                entry = CorpusEntry(f"{kind}:x", kind, make())
                out.append(json.loads(run_check(entry, name, param)))
    return out


def count_searches(monkeypatch) -> list:
    """The `what` of every generator-image search, the one step each build of
    Aut(G), End_N(G) or Der(G, N) runs exactly once."""
    calls = []
    real = morphisms._image_rows

    def counted(G, choices, act, what):
        calls.append(what)
        return real(G, choices, act, what)

    monkeypatch.setattr(morphisms, "_image_rows", counted)
    return calls


def test_group_checks_build_aut_group_and_profile_once(monkeypatch):
    fresh = run_kind("group", lambda: builtin_group("c3xc3"))
    searches = count_searches(monkeypatch)
    profiles = count_inits(monkeypatch, verify.GroupProfile)
    G = builtin_group("c3xc3")
    shared = run_kind("group", lambda: G)
    assert AUT_CHECKS <= {rec["check"] for rec in shared if rec["hypothesis_met"]}
    assert searches.count("automorphism candidate space") == 1
    assert len(profiles) == 1
    assert shared == fresh


def test_ring_checks_build_adjoint_group_once(monkeypatch):
    fresh = run_kind("ring", lambda: multiples_ring(3, 27))
    builds = count_inits(monkeypatch, AdjointGroup)
    R = multiples_ring(3, 27)
    shared = run_kind("ring", lambda: R)
    met = {rec["check"] for rec in shared if rec["hypothesis_met"]}
    assert {"omega-correspondence", "p-central-adjoint", "adjoint-rank", "sylow-rank"} <= met
    assert len(builds) == 1
    assert shared == fresh


def test_laue_and_der_subring_build_derivations_once_per_module(monkeypatch):
    checks = {"laue", "der-subring-p-nil"}
    fresh = run_kind("group", lambda: builtin_group("c4xc2"), checks)
    modules = []
    real_der = morphisms._der_matrix

    def der_matrix(G, N):
        modules.append(N.elems)
        return real_der(G, N)

    monkeypatch.setattr(morphisms, "_der_matrix", der_matrix)
    searches = count_searches(monkeypatch)
    G = builtin_group("c4xc2")
    shared = run_kind("group", lambda: G, checks)
    assert {rec["check"] for rec in shared if rec["hypothesis_met"]} == checks
    assert len(modules) > len(set(modules)) == searches.count("derivation search space")
    assert not morphisms._der_matrix(G, abelian_normal_subgroups(G)[-1]).flags.writeable
    assert shared == fresh


def test_endomorphisms_are_searched_once_per_module(monkeypatch):
    """aut-center-exponent and aut-exponent both read Aut_N(G) for the same
    N, and laue reads End_N(G) again on its modules: one search per module."""
    checks = {"laue", "aut-center-exponent", "aut-exponent"}
    fresh = run_kind("group", lambda: builtin_group("d8"), checks)
    modules = []
    real_endo = morphisms._endo_matrix

    def endo_matrix(G, N):
        modules.append(N.elems)
        return real_endo(G, N)

    monkeypatch.setattr(morphisms, "_endo_matrix", endo_matrix)
    searches = count_searches(monkeypatch)
    G = builtin_group("d8")
    shared = run_kind("group", lambda: G, checks)
    assert len(modules) > len(set(modules)) == searches.count("endomorphism search space")
    assert not any(G._cache["endo", N].flags.writeable for N in set(modules))
    assert shared == fresh


def test_spanning_tree_plan_is_built_once_per_group():
    """Every search on G fills along one kept plan: each element once, from a
    parent filled before it, by a test column."""
    G = builtin_group("d8xc2")
    plan = morphisms._bfs_plan(G)
    run_kind("group", lambda: G, {"laue", "aut-exponent"})
    assert morphisms._bfs_plan(G) is plan is G._cache["bfs_plan"]
    S = morphisms._test_columns(G)
    filled = [G.identity]
    for elem, parent, k in plan:
        assert parent in filled and G.table[parent, S[k]] == elem
        filled.append(elem)
    assert sorted(filled) == list(range(G.n))


def test_der_subring_task_tests_its_module_at_most_twice(monkeypatch):
    G = builtin_group("d8xc2")
    calls = []

    def counted(G, H):
        calls.append(None)
        return is_normal(G, H)

    monkeypatch.setattr(groups, "is_normal", counted)
    monkeypatch.setattr(morphisms, "is_normal", counted)
    per_task = []
    for label in CHECKS["der-subring-p-nil"].params(G):
        before = len(calls)
        run_check(CorpusEntry("group:x", "group", G), "der-subring-p-nil", label)
        per_task.append(len(calls) - before)
    assert len(per_task) == 20
    assert max(per_task) <= 2


@pytest.mark.parametrize("build", [morphisms.der_ring, morphisms.der_subring_trivial_on_omega])
def test_der_rings_refuse_bad_modules_before_the_memo(build):
    G = builtin_group("d8")
    Z = center(G)
    build(G, Z)  # keeps the derivations into Z in G's memo
    not_normal = next(H for H in enumerate_subgroups(G) if not is_normal(G, H))
    refused = [
        (Subgroup(builtin_group("q8"), Z.elems), "must live in the same group"),
        (not_normal, "must be normal"),
        (full_subgroup(G), "module subgroup must be abelian"),
    ]
    for N, message in refused:
        with pytest.raises(InvalidArgumentError, match=message):
            build(G, N)


def test_aut_entries_gate_runs_before_the_memo(monkeypatch):
    # C3 x C3's two test columns have 8 candidate images each: 64 x 9 entries
    G = builtin_group("c3xc3")
    monkeypatch.setattr(morphisms, "BATCH_BUDGET", 64 * 9 - 1)
    with pytest.raises(BudgetError):
        aut_group(G)
    assert "aut" not in G._cache
    refused = json.loads(run_check(CorpusEntry("group:x", "group", G), "aut-exponent", None))
    assert (refused["verdict"], refused["bound"]) == (
        "skipped", "automorphism candidate space exceeds the batch budget")
    monkeypatch.setattr(morphisms, "BATCH_BUDGET", 64 * 9)
    auts = aut_group(G)
    assert aut_group(G) is auts and auts.order == 48


def test_lattice_budget_runs_before_the_sweep_memo(monkeypatch):
    # the Sylow 2-subgroup of Aut(C4 x C4) has order 32 and a lattice of 619
    # entries, C4 x C4's own lattice 75; an order cap of 24 makes the budget
    # 576 entries, which passes rank(G) and must still stop the sweep
    G = builtin_group("c4xc4")
    syl, _ = aut_group(G).sylow(2)
    assert aut_group(G).sylow(2)[0] is syl and syl.n == 32
    monkeypatch.setattr(groups, "MAX_ORDER", 24)
    with pytest.raises(BudgetError, match="subgroup lattice exceeds 576 entries"):
        widest_subgroup(syl)
    assert "subgroups" not in syl._cache
    capped = json.loads(run_check(CorpusEntry("group:x", "group", G), "aut-gen-bound", None))
    assert (capped["verdict"], capped["bound"]) == (
        "skipped", "subgroup lattice exceeds 576 entries")
    assert "subgroups" in G._cache and "subgroups" not in syl._cache
    monkeypatch.undo()
    warm = verify.check_aut_gen_bound(G)
    assert warm.hypothesis_met and warm.verdict == "pass"
    assert widest_subgroup(syl)[0] == warm.computed["max_d"]


def test_refused_build_stores_nothing_and_builds_again(monkeypatch):
    """Der(G, Z(G)) refused once by its budget leaves no key; the next call
    searches again and keeps its rows, and a third call reads them."""
    G = builtin_group("c4xc2")
    Z = center(G)
    real = morphisms._image_rows
    searches = []

    def refuse_once(*args):
        searches.append(None)
        if len(searches) == 1:
            raise BudgetError("derivation search space exceeds the batch budget")
        return real(*args)

    monkeypatch.setattr(morphisms, "_image_rows", refuse_once)
    with pytest.raises(BudgetError):
        morphisms._der_matrix(G, Z)
    assert ("der", Z.elems) not in G._cache
    rows = morphisms._der_matrix(G, Z)
    assert G._cache["der", Z.elems] is rows and len(searches) == 2
    assert morphisms._der_matrix(G, Z) is rows and len(searches) == 2


def record_memos(monkeypatch) -> list:
    """(weak reference to the owner, key) of every entry `memo` stores, in
    every module that calls it."""
    stored = []
    real = groups.memo

    def recording(obj, key, build):
        fresh = key not in obj._cache
        value = real(obj, key, build)
        if fresh:
            stored.append((weakref.ref(obj), key))
        return value

    for module in (groups, morphisms, verify, adjoint, rings):
        monkeypatch.setattr(module, "memo", recording)
    return stored


@pytest.mark.parametrize("kind, make, held, others", [
    ("group", lambda: builtin_group("c4xc2"), {"aut", "subgroups", "bfs_plan", "profile"},
     {morphisms.AutomorphismGroup}),
    ("ring", lambda: multiples_ring(3, 27), {"adjoint", "power_chain", "profile"},
     {groups.FiniteGroup}),
], ids=["c4xc2", "3z27"])
def test_release_memo_leaves_nothing_memo_stored(monkeypatch, kind, make, held, others):
    """Every check of the instance runs; after `release_memo` its own memo and
    cached properties are empty, and every other object that kept a memo
    entry (Aut(G) with its Sylow tables, subgroup tables, the circle group)
    is unreachable."""
    stored = record_memos(monkeypatch)
    obj = make()
    run_kind(kind, lambda: obj)
    assert held <= {key for ref, key in stored if ref() is obj} == set(obj._cache)
    assert {type(ref()) for ref, _ in stored if ref() not in (None, obj)} & others
    release_memo(obj)
    gc.collect()
    assert obj._cache == {}
    assert not [name for name, attr in vars(type(obj)).items()
                if isinstance(attr, cached_property) and name in vars(obj)]
    assert [key for ref, key in stored if ref() not in (None, obj)] == []
