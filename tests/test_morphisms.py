"""Homomorphism, derivation, and automorphism machinery tests.

Counts marked with a source are classical values or were derived by hand from
the defining relations; nothing here is copied from the code under test.
"""

import tracemalloc

import numpy as np
import pytest

from adjrings.cli import DEFAULT_GROUP_NAMES
from adjrings.errors import BoundError, BudgetError, InvalidArgumentError, InvalidStructureError
from adjrings.groups import (
    CHUNK_ENTRIES,
    Subgroup,
    _compose_table,
    _RowIndex,
    abelian_normal_subgroups,
    agemo,
    builtin_group,
    center,
    commutator_subgroup,
    cyclic_group,
    dihedral_group,
    full_subgroup,
    prime_of,
    sylow_ascent,
    trivial_subgroup,
)
from adjrings import groups, morphisms
from adjrings.morphisms import (
    PAIRS_CAP,
    AutomorphismGroup,
    _all_pairs,
    _der_matrix,
    _endo_matrix,
    _law_rows,
    _pair_kernel,
    _rows_to_ring_tables,
    _test_columns,
    _trivial_action,
    aut_group,
    aut_n,
    check_laue,
    coset_offsets,
    der_ring,
    der_subring_trivial_on_omega,
    hom_ring,
    to_finite_ring,
)
from adjrings.rings import nilpotency_class_ring

import oracle


# -- homomorphisms into a central module --------------------------------------
# On a central N the twisted rule d(xy) = d(x)^y d(y) is the homomorphism rule,
# so the derivation rows into N are exactly Hom(G, N).


def homs(G, N=None):
    """Image rows of every homomorphism from G into its central subgroup N
    (all of G by default, for an abelian G)."""
    return _der_matrix(G, N or full_subgroup(G))


def test_hom_counts_cyclic():
    # |Hom(Z_m, Z_n)| = gcd(m, n)
    c9, c12 = cyclic_group(9), cyclic_group(12)
    assert homs(c9, agemo(c9, 1)).shape[0] == 3
    assert homs(c12).shape[0] == 12
    assert homs(c12, Subgroup(c12, (0, 4, 8))).shape[0] == 3  # into its C3
    assert homs(c12, trivial_subgroup(c12)).shape[0] == 1


def test_hom_count_quaternion_to_c2():
    # Q8 abelianized is C2 x C2, so four maps to its center C2
    q8 = builtin_group("q8")
    rows = homs(q8, center(q8))
    assert rows.shape[0] == 4
    assert (rows == q8.identity).all(axis=1).sum() == 1


def test_hom_count_v4_self():
    v4 = builtin_group("c2xc2")
    rows = homs(v4)
    assert rows.shape[0] == 16
    assert np.unique(rows, axis=0).shape[0] == 16
    assert _law_rows(v4, _trivial_action(v4), rows).all()


def test_homs_into_subgroup():
    c9 = cyclic_group(9)
    third = agemo(c9, 1)
    assert third.order == 3
    rows = homs(c9, third)
    assert rows.shape[0] == 3
    assert set(rows.ravel().tolist()) <= set(third.elems)
    _, ring_rows = hom_ring(c9, third)
    assert sorted(ring_rows.tolist()) == sorted(rows.tolist())


def test_hom_composition_and_validation():
    c4 = cyclic_group(4)
    assert not _law_rows(c4, _trivial_action(c4), np.array([[0, 1, 2, 0]]))[0]


def test_hom_target_must_be_abelian():
    d8 = dihedral_group(8)
    with pytest.raises(InvalidArgumentError, match="module subgroup must be abelian"):
        _der_matrix(d8, full_subgroup(d8))
    with pytest.raises(InvalidArgumentError, match="central target"):
        hom_ring(d8, full_subgroup(d8))


def test_hom_enumeration_is_deterministic():
    g, h = builtin_group("c4xc2"), builtin_group("c4xc2")
    assert g is not h
    assert (homs(g) == homs(h)).all()


def test_trivial_group_has_one_map_of_each_kind():
    c1 = builtin_group("c1")
    one = [[c1.identity]]
    assert homs(c1).tolist() == one
    assert _endo_matrix(c1, full_subgroup(c1)).tolist() == one
    assert aut_group(c1).matrix.tolist() == one


# -- derivations ---------------------------------------------------------------


def test_derivations_central_module_are_homs():
    c4 = cyclic_group(4)
    half = agemo(c4, 1)
    ders = _der_matrix(c4, half)
    assert sorted(ders.tolist()) == [[0, 0, 0, 0], [0, 2, 0, 2]]


ROT8 = [0, 2, 4, 6]  # rotation indices in dihedral_group(8): pairs (i, 0)


def test_derivation_count_dihedral_rotations():
    # d(r) may be any rotation, d(s) any of the four values with d(s)^s d(s)=e;
    # working the relations by hand gives 16 derivations into <r>
    d8 = dihedral_group(8)
    rot = Subgroup(d8, tuple(ROT8))
    assert _der_matrix(d8, rot).shape[0] == 16
    # the endomorphisms preserving the cosets of <r>, enumerated independently
    assert check_laue(d8, rot).computed["end_count"] == 16


def _d8_rotations():
    d8 = dihedral_group(8)
    return d8, Subgroup(d8, tuple(ROT8))


# each search has 16 (d8 into <r>) or 36 (q8: six candidates per generator)
# candidates of 8 image entries each; a budget one entry below refuses it,
# the exact count of entries admits it
@pytest.mark.parametrize("search, build, count, rows", [
    ("derivation", lambda: _der_matrix(*_d8_rotations()), 16, 16),
    ("endomorphism", lambda: _endo_matrix(*_d8_rotations()), 16, 16),
    ("automorphism", lambda: aut_group(builtin_group("q8")).matrix, 36, 24),
], ids=["derivation", "endomorphism", "automorphism"])
def test_candidate_search_budget(monkeypatch, search, build, count, rows):
    monkeypatch.setattr(morphisms, "BATCH_BUDGET", count * 8 - 1)
    with pytest.raises(BudgetError, match=f"{search} .* exceeds the batch budget"):
        build()
    monkeypatch.setattr(morphisms, "BATCH_BUDGET", count * 8)
    assert len(build()) == rows


def test_candidate_search_is_refused_before_its_grid():
    # C5^3 into its centre: 125^3 candidates of 125 image entries each, far
    # past the budget; the filled rows alone would take 0.98 GB
    G = builtin_group("c5xc5xc5")
    Z = center(G)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="derivation search space exceeds the batch budget"):
            _der_matrix(G, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def _searches(G):
    """Der and End_N rows on every abelian normal module of G, then Aut(G)'s rows."""
    out = []
    for N in abelian_normal_subgroups(G):
        out += [_der_matrix(G, N), _endo_matrix(G, N)]
    return out + [aut_group(G).matrix]


@pytest.mark.parametrize("name", [n for n in DEFAULT_GROUP_NAMES if builtin_group(n).n <= 32])
def test_blocked_search_matches_one_shot_grid(name, monkeypatch):
    """Der, End_N and Aut rows from the blocked search equal, row for row, the
    one-shot fill of the whole itertools.product grid, on every abelian normal
    module.  Blocks hold 2|G| - 1 candidates, prime to p for every p-group
    here, so block edges fall inside digit carries, and every search past a
    few dozen candidates spans several blocks (C2^4's largest, 2115)."""
    G = builtin_group(name)
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", (2 * G.n - 1) * G.n)
    blocked = _searches(G)
    with monkeypatch.context() as mp:
        mp.setattr(morphisms, "_image_rows", oracle.image_rows_by_grid)
        expected = _searches(builtin_group(name))
    assert len(blocked) == len(expected)
    for got, want in zip(blocked, expected):
        assert got.dtype == want.dtype == np.int32
        np.testing.assert_array_equal(got, want)
    if G.n == 1:  # one candidate, the identity map, in each search
        assert [M.tolist() for M in blocked] == [[[0]]] * 3


def test_derivation_search_memory_stays_bounded():
    # Der(C2^4, C2^4) = Hom = M_4(F_2): 2^16 rows of 16 entries (4 MiB) kept
    # out of 2^16 candidates; filled at once, the search peaked at 40 MiB,
    # and with its kept blocks joined by one concatenate at 8.57 MiB
    G = builtin_group("c2xc2xc2xc2")
    tracemalloc.start()
    try:
        rows = _der_matrix(G, full_subgroup(G))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (2**16, 16)
    assert peak < 1.5 * rows.nbytes


def test_derivation_rejects_non_normal_module():
    d8 = dihedral_group(8)
    refl = Subgroup(d8, (0, 1))
    with pytest.raises(InvalidArgumentError):
        _der_matrix(d8, refl)


def test_derivation_validation_twisted_rule():
    d8 = dihedral_group(8)
    rot = Subgroup(d8, tuple(ROT8))
    # values stay in the module but d(r^3) contradicts d(r)
    row = np.array([[0, 0, 4, 0, 0, 0, 0, 0]])
    assert np.isin(row, rot.elems).all()
    conjugation = d8.conj_table[d8.inverses[_test_columns(d8)]]
    assert not _law_rows(d8, conjugation, row)[0]
    assert _law_rows(d8, conjugation, _der_matrix(d8, rot)).all()


# -- the correspondence -------------------------------------------------------


def test_check_laue_passes_central_and_noncentral():
    d8 = dihedral_group(8)
    rot = Subgroup(d8, tuple(ROT8))
    rep = check_laue(d8, rot)
    assert rep.verdict == "pass"
    assert rep.computed["central"] is False
    assert rep.computed["der_count"] == 16
    assert rep.computed["aut_count"] == 8

    q8 = builtin_group("q8")
    rep2 = check_laue(q8, center(q8))
    assert rep2.verdict == "pass"
    assert rep2.computed["central"] is True
    assert rep2.computed["der_count"] == 4


def test_check_laue_generator_mode_agrees_with_all_pairs(monkeypatch):
    g = builtin_group("c4xc2")
    n = full_subgroup(g)
    exhaustive = check_laue(g, n)
    assert exhaustive.verdict == "pass"
    assert exhaustive.computed["pairs_mode"] == "all-pairs"
    assert exhaustive.computed["der_count"] == 32
    monkeypatch.setattr(morphisms, "PAIRS_CAP", 8)
    generators = check_laue(g, n)
    assert generators.verdict == "pass"
    assert generators.computed["pairs_mode"] == "generators"
    assert generators.computed["aut_count"] == exhaustive.computed["aut_count"]


def non_central_module_m27xc3():
    """An order-27 abelian normal subgroup of m27 x C3 off the centre, with
    2187 derivations: past PAIRS_CAP, so compared in generator mode."""
    G = builtin_group("m27xc3")
    N = next(N for N in abelian_normal_subgroups(G)
             if N.order == 27 and not (N.mask <= center(G).mask).all())
    return G, N


def test_check_laue_generator_mode_on_a_non_central_module():
    G, N = non_central_module_m27xc3()
    rep = check_laue(G, N)
    assert rep.verdict == "pass"
    assert rep.computed["central"] is False
    assert rep.computed["pairs_mode"] == "generators"
    assert rep.computed["der_count"] == 2187 > PAIRS_CAP
    assert rep.computed["restriction"] == "constructive"


def test_check_laue_trivial_module():
    q8 = builtin_group("q8")
    rep = check_laue(q8, trivial_subgroup(q8))
    assert rep.verdict == "pass"
    assert rep.computed["der_count"] == 1


def test_laue_across_all_modules_of_one_group():
    g = builtin_group("m16")
    for n in abelian_normal_subgroups(g):
        assert check_laue(g, n).verdict == "pass"


def per_row_laue_oracle(G, ends, DU, S):
    """Mismatch and left-zero masks of every pair (i, j), one row i at a time,
    by 2-D gathers on the untransposed tables."""
    t, m = G.table, ends.shape[0]
    j = np.arange(m)[:, None]
    bad, zero = np.zeros((m, m), bool), np.zeros((m, m), bool)
    for i in range(m):
        a = DU[i, S]
        left = t[G.inverses[S], ends[j, ends[i, S]]]
        circ = t[t[a, DU[j, S]], DU[j, a]]
        bad[i] = (left != circ).any(axis=1)
        zero[i] = (circ == G.identity).all(axis=1)
    return bad, zero


def late_failure(G, DU, S):
    """DU with d_0(a) changed for the a outside S whose first row in DU[:, S] is
    latest.  Only the pairs (i, 0) with a in d_i(S) read d_0(a), so the first
    failing pair in row-major order is (that row, 0)."""
    outside = np.setdiff1d(np.arange(G.n), S)
    hits = (DU[:, S][:, :, None] == outside).any(axis=1)  # rows x outside
    first = np.where(hits.any(axis=0), hits.argmax(axis=0), -1)
    a = int(outside[first.argmax()])
    bent = DU.copy()
    bent[0, a] = (bent[0, a] + 1) % G.n
    return bent, int(first.max())


def laue_witness_with(G, N, ends, DU, monkeypatch):
    """_laue_witness on the true endomorphisms and derivations, with every
    pair comparison reading DU in place of the true derivation rows."""
    kernel = morphisms._pair_kernel
    monkeypatch.setattr(morphisms, "_pair_kernel", lambda G, e, _, cols: kernel(G, e, DU, cols))
    return morphisms._laue_witness(G, N, _der_matrix(G, N), ends, {})


@pytest.mark.parametrize("name", ["c4xc2xc2", "c4xc8", "c2xc2xc2"])
def test_laue_row_blocks_match_per_row_oracle(name, monkeypatch):
    """The blocked all-pairs comparison gives the per-row loop's mismatch and
    left-zero masks, and check_laue names the oracle's first failing pair.
    A rolled DU keeps both sides derivations and makes most pairs mismatch."""
    G = builtin_group(name)
    S = _test_columns(G)
    blocks = []
    for N in abelian_normal_subgroups(G):
        ends = _endo_matrix(G, N)
        m = ends.shape[0]
        if m > PAIRS_CAP:
            continue
        blocks.append(-(-m // max(1, CHUNK_ENTRIES // (m * S.size))))
        DU = coset_offsets(G, ends)
        for bent in (DU, np.roll(DU, 1, axis=0), late_failure(G, DU, S)[0]):
            bad, zero = _all_pairs(G, _pair_kernel(G, ends, bent, S), m, S.size)
            obad, ozero = per_row_laue_oracle(G, ends, bent, S)
            np.testing.assert_array_equal(bad, obad)
            np.testing.assert_array_equal(zero, ozero)
            with monkeypatch.context() as mp:
                witness = laue_witness_with(G, N, ends, bent, mp)
            if obad.any():
                i, j = np.argwhere(obad)[0]
                assert witness == f"pair ({i},{j}) breaks the correspondence"
            else:
                assert witness is None
    assert max(blocks) > 1  # some module spans several row blocks


def test_laue_witness_row_past_the_first_block(monkeypatch):
    """On c4xc8 with its 512 endomorphisms of the full module, the first failing
    pair of a late perturbation lies in a later row block than the first."""
    G = builtin_group("c4xc8")
    S = _test_columns(G)
    N = abelian_normal_subgroups(G)[-1]
    ends = _endo_matrix(G, N)
    m = ends.shape[0]
    rows = max(1, CHUNK_ENTRIES // (m * S.size))
    bent, row = late_failure(G, coset_offsets(G, ends), S)
    assert m == 512 and row >= rows
    assert laue_witness_with(G, N, ends, bent, monkeypatch) == \
        f"pair ({row},0) breaks the correspondence"
    obad = per_row_laue_oracle(G, ends, bent, S)[0]
    assert [tuple(p) for p in np.argwhere(obad)][0] == (row, 0)


def test_laue_generator_mode_witness_is_a_failing_pair(monkeypatch):
    """Past PAIRS_CAP the witness comes from the generator rows and columns;
    under a rolled DU it names a pair the per-row oracle marks as failing."""
    G = builtin_group("c4xc8")
    S = _test_columns(G)
    N = abelian_normal_subgroups(G)[-1]
    ends = _endo_matrix(G, N)
    rolled = np.roll(coset_offsets(G, ends), 1, axis=0)
    monkeypatch.setattr(morphisms, "PAIRS_CAP", 8)
    witness = laue_witness_with(G, N, ends, rolled, monkeypatch)
    i, j = map(int, witness.removeprefix("pair (").split(")")[0].split(","))
    assert per_row_laue_oracle(G, ends, rolled, S)[0][i, j]


def test_laue_generator_mode_witness_on_a_non_central_module(monkeypatch):
    """Under a rolled DU the generator-mode witness on a non-central module
    names a pair (i, j) whose two sides differ, recomputed here row by row."""
    G, N = non_central_module_m27xc3()
    S = _test_columns(G)
    ends = _endo_matrix(G, N)
    rolled = np.roll(coset_offsets(G, ends), 1, axis=0)
    witness = laue_witness_with(G, N, ends, rolled, monkeypatch)
    i, j = map(int, witness.removeprefix("pair (").split(")")[0].split(","))
    t, a = G.table, rolled[i, S]
    left = t[G.inverses[S], ends[j, ends[i, S]]]
    assert (left != t[t[a, rolled[j, S]], rolled[j, a]]).any()


# -- rings of morphisms --------------------------------------------------------


def test_table_ring_rejects_bad_tables():
    add = np.array([[0, 1], [1, 0]])
    bad_mul = np.array([[0, 1], [0, 0]])  # not associative: (1*1)*1 != 1*(1*1)
    with pytest.raises(InvalidStructureError):
        to_finite_ring(add, bad_mul, zero=0)


@pytest.mark.parametrize("add, mul", [
    pytest.param([[0, 1.5], [1.5, 0]], [[0, 0], [0, 0]], id="float-add"),
    pytest.param([[0, 1], [1, 0]], np.zeros((2, 2), dtype=bool), id="bool-mul"),
])
def test_table_ring_rejects_non_integer_tables(add, mul):
    with pytest.raises(InvalidStructureError, match="table entries must be int64"):
        to_finite_ring(add, mul, zero=0)


def test_row_index_keeps_no_copy_of_its_rows():
    # 20000 distinct rows of 16 int32 entries (1.28 MB): the index keeps one
    # int64 position per row (160 kB), and reads the rows through a view
    rng = np.random.default_rng(7)
    M = np.unique(rng.integers(0, 1 << 30, size=(20000, 16), dtype=np.int32), axis=0)
    M = M[rng.permutation(len(M))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = _RowIndex(M)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= M.nbytes // 2
    idx, found = index.find(np.concatenate([M[::-1], M[:5] + 1]))
    assert (idx[:len(M)] == np.arange(len(M))[::-1]).all()
    assert found[:len(M)].all() and not found[len(M):].any()


def test_hom_ring_into_agemo_is_zero_ring():
    c9 = cyclic_group(9)
    ring, _ = hom_ring(c9, agemo(c9, 1))
    assert ring.order == 3
    assert (ring.tables.mul == 0).all()


def test_hom_ring_quaternion_center_is_zero_ring():
    q8 = builtin_group("q8")
    ring, _ = hom_ring(q8, center(q8))
    assert ring.order == 4
    assert (ring.tables.mul == 0).all()


def test_der_ring_v4_projection_products():
    v4 = builtin_group("c2xc2")
    axis = Subgroup(v4, (0, 2))  # the (a, 0) coordinate line
    ring, rows = der_ring(v4, axis)
    assert ring.order == 4
    idx = {tuple(img): i for i, img in enumerate(rows.tolist())}
    e1 = idx[(0, 0, 2, 2)]  # (a,b) -> (a,0)
    e2 = idx[(0, 2, 0, 2)]  # (a,b) -> (b,0)
    mul = ring.tables.mul
    assert mul[e1, e1] == e1
    assert mul[e2, e1] == e2
    assert mul[e1, e2] == 0
    assert mul[e2, e2] == 0


def test_der_ring_full_module_of_c4_is_z4():
    c4 = cyclic_group(4)
    ring, rows = der_ring(c4, full_subgroup(c4))
    assert ring.order == 4
    assert ring.p == 2 and ring.exps == (2,)
    assert nilpotency_class_ring(ring) is None  # has the identity map
    assert (rows[0] == c4.identity).all()  # the zero element is the zero derivation
    assert sorted(rows.tolist()) == sorted(_der_matrix(c4, full_subgroup(c4)).tolist())


def test_table_ring_rejects_duplicate_rows():
    c4 = cyclic_group(4)
    rows = np.array([[0, 0, 0, 0], [0, 2, 0, 2], [0, 0, 0, 0]], dtype=np.int32)
    with pytest.raises(InvalidStructureError, match="duplicate image rows"):
        _rows_to_ring_tables(c4, rows, "test")


def test_to_finite_ring_requires_prime_power():
    c6 = cyclic_group(6)
    with pytest.raises(InvalidStructureError, match="not a p-group"):
        der_ring(c6, full_subgroup(c6))


def test_der_subring_vanishing_on_bottom_layer():
    c8 = cyclic_group(8)
    sq = agemo(c8, 1)
    small, _ = der_subring_trivial_on_omega(c8, sq)
    assert small.order == 2
    assert (small.tables.mul == 0).all()
    # a trivial module is a p-group too: its one derivation is the zero ring
    c4xc2 = builtin_group("c4xc2")
    N = commutator_subgroup(c4xc2)
    assert N.order == 1
    zero, rows = der_subring_trivial_on_omega(c4xc2, N)
    assert zero.order == 1
    assert np.array_equal(rows, _der_matrix(c4xc2, N))


# -- composition tables ------------------------------------------------------


def _composition_cases():
    """(image rows, their composition table) from each table-building path."""
    q8, d8 = builtin_group("q8"), dihedral_group(8)
    cases = []
    for G, N in ((q8, center(q8)), (d8, full_subgroup(d8))):
        grp, members = aut_n(G, N)
        cases.append((members, grp.table))
    auts = aut_group(q8)
    syl, ids = auts.sylow(2)
    cases.append((auts.matrix[ids], syl.table))
    c4xc2 = builtin_group("c4xc2")
    ring, rows = der_ring(c4xc2, center(c4xc2))
    cases.append((rows, ring.tables.mul))
    return cases


def test_compose_table_matches_member_composition():
    for rows, table in _composition_cases():
        index = {r: k for k, r in enumerate(map(tuple, rows.tolist()))}
        m = len(index)
        assert m == rows.shape[0] > 1
        expected = np.array([[index[tuple(rows[j][rows[i]].tolist())] for j in range(m)]
                             for i in range(m)])
        assert (table == expected).all()
        assert (_compose_table(rows, _RowIndex(rows), "test") == expected).all()


def test_compose_table_rejects_missing_member():
    q8 = builtin_group("q8")
    _, members = aut_n(q8, center(q8))
    rows = np.delete(members, 1, axis=0)
    with pytest.raises(InvalidStructureError, match="not in the enumerated set"):
        _compose_table(rows, _RowIndex(rows), "test")


def test_aut_tables_are_associative():
    d8 = dihedral_group(8)
    aut_n_table = aut_n(d8, Subgroup(d8, tuple(ROT8)))[0].table
    aut_table = aut_group(builtin_group("q8")).as_group()[0].table
    for tab in (aut_n_table, aut_table):
        m = tab.shape[0]
        assert (tab[tab, :] == tab[:, tab]).all()
        ident = int(np.flatnonzero((tab == np.arange(m)).all(axis=1))[0])
        assert (tab[ident] == np.arange(m)).all()
        assert (tab[:, ident] == np.arange(m)).all()


# -- automorphisms -------------------------------------------------------------


def test_aut_n_quaternion_center_is_v4():
    q8 = builtin_group("q8")
    grp, members = aut_n(q8, center(q8))
    assert grp.n == 4
    assert grp.exponent() == 2
    assert members.shape == (4, 8) and not members.flags.writeable


def test_aut_n_c9_agemo_is_c3():
    c9 = cyclic_group(9)
    grp, members = aut_n(c9, agemo(c9, 1))
    assert grp.n == 3
    assert grp.exponent() == 3
    assert all(len(set(m)) == 9 for m in members)


def test_aut_n_full_module_matches_aut_group():
    d8 = dihedral_group(8)
    grp, members = aut_n(d8, full_subgroup(d8))
    auts = aut_group(d8)
    assert np.array_equal(members, auts.matrix)  # both in lexicographic order
    assert np.array_equal(grp.table, auts.as_group()[0].table)


@pytest.mark.parametrize("name, expected", [
    ("c2xc2", 6),      # GL(2,2)
    ("q8", 24),        # classical: Aut(Q8) = S4
    ("c9", 6),         # units mod 9
    ("d8", 8),
    ("c12", 4),        # units mod 12
])
def test_aut_orders(name, expected):
    assert aut_group(builtin_group(name)).order == expected


def test_aut_group_gl42_order():
    e16 = builtin_group("c2xc2xc2xc2")
    auts = aut_group(e16)
    assert auts.order == 20160  # (16-1)(16-2)(16-4)(16-8)


def _primes(m):
    return [q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q))]


def _member_p_powers(monkeypatch):
    """The p_power callables AutomorphismGroup.sylow hands to sylow_ascent,
    by prime, recorded as each ascent starts."""
    seen = {}

    def spy(m, identity, p, p_power, conj, step):
        seen[p] = p_power
        return sylow_ascent(m, identity, p, p_power, conj, step)
    monkeypatch.setattr(morphisms, "sylow_ascent", spy)
    return seen


def test_aut_group_exponent_and_p_elements(monkeypatch):
    p_powers = _member_p_powers(monkeypatch)
    auts = aut_group(builtin_group("q8"))
    assert auts.as_group()[0].exponent() == 12  # S4
    for q in (2, 3):
        auts.sylow(q)
    # S4 has 9 involutions and 6 four-cycles, and 8 three-cycles
    assert [int(p_powers[2](k).sum()) for k in (1, 2, 4, 8)] == [1, 10, 16, 16]
    assert [int(p_powers[3](k).sum()) for k in (1, 3, 9)] == [1, 9, 9]


def _p_groups_with_aut_table():
    """Names of the default-corpus p-groups whose Aut(G) fits a Cayley table;
    the three named here have more than 729 automorphisms."""
    large = {"c2xc2xc2xc2", "c3xc3xc3", "c9xc9"}
    return [name for name in DEFAULT_GROUP_NAMES
            if name not in large and prime_of(builtin_group(name)) is not None]


@pytest.mark.parametrize("name", _p_groups_with_aut_table())
def test_aut_sylow_and_orders_match_cayley_table_oracle(monkeypatch, name):
    # the oracle runs the closure ascent and element_orders on the full
    # Cayley table, which shares no lookup code with the member-wise view
    p_powers = _member_p_powers(monkeypatch)
    auts = aut_group(builtin_group(name))
    table, _ = auts.as_group()
    orders = table.element_orders
    for q in _primes(auts.order):
        _, ids = auts.sylow(q)
        assert tuple(ids) == oracle.sylow_by_closure(table, q).elems, q
        for k in (q, len(ids), auts.order):  # p-elements read at p^a = len(ids)
            assert (p_powers[q](k) == (k % orders == 0)).all(), (q, k)


@pytest.mark.parametrize("name", ["q8", "d8", "c4xc2", "m16"])
def test_aut_sylow_in_small_blocks_matches_oracle(monkeypatch, name):
    # blocks of 5 members: the p-element test, the row inverses and the
    # conjugation positions each span several blocks, the last one partial
    p_powers = _member_p_powers(monkeypatch)
    G = builtin_group(name)
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", 5 * G.n)
    auts = aut_group(G)
    table, _ = auts.as_group()
    orders = table.element_orders
    assert auts.order > 5 and auts.order % 5
    for q in _primes(auts.order):
        _, ids = auts.sylow(q)
        assert tuple(ids) == oracle.sylow_by_closure(table, q).elems, q
        assert (p_powers[q](len(ids)) == (len(ids) % orders == 0)).all(), q


@pytest.mark.parametrize("name", DEFAULT_GROUP_NAMES)
def test_bfs_plan_is_the_queue_of_right_products(name):
    G = builtin_group(name)
    assert morphisms._bfs_plan(G) == oracle.bfs_plan(G)


def test_monoid_generators_count_image_sizes_in_blocks():
    # End(C3^3) has 19683 members of 27 image entries; sorting a full copy of
    # the rows to count each row's image size peaked at 5.7 MiB traced
    G = builtin_group("c3xc3xc3")
    ends = _endo_matrix(G, full_subgroup(G))
    index = _RowIndex(ends)
    ident = int(index.require(np.arange(G.n, dtype=ends.dtype)[None, :], "identity")[0])
    tracemalloc.start()
    try:
        gens = morphisms._monoid_generators(ends, index, ident)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ends.shape == (19683, 27) and len(gens) == 9
    assert peak <= 4.5 * 2**20


def test_aut_sylow_memory_stays_bounded():
    # Sylow 3-subgroup (order 729) of the 23328 automorphisms of es27 x C3,
    # 81 image entries each: powering every member at once and an int64
    # argsort of the rows peaked at 46.1 MiB traced
    auts = aut_group(builtin_group("es27xc3"))
    tracemalloc.start()
    try:
        syl, ids = auts.sylow(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert syl.n == len(ids) == 729
    assert peak <= 46.1 / 2 * 2**20


def test_aut_sylow_orders_of_gl42():
    auts = aut_group(builtin_group("c2xc2xc2xc2"))
    # |GL(4,2)| = 20160 = 2^6 * 3^2 * 5 * 7
    for q, size in ((2, 64), (3, 9), (5, 5), (7, 7)):
        syl, ids = auts.sylow(q)
        assert syl.n == len(ids) == size


def test_aut_group_rejects_bad_member_rows():
    c4 = cyclic_group(4)
    ident, inv = [0, 1, 2, 3], [0, 3, 2, 1]
    with pytest.raises(InvalidStructureError, match="duplicate image rows"):
        AutomorphismGroup(c4, np.array([ident, inv, ident], dtype=np.int32))
    with pytest.raises(InvalidStructureError):
        AutomorphismGroup(c4, np.array([inv], dtype=np.int32))


def test_aut_sylow_of_s4():
    auts = aut_group(builtin_group("q8"))
    syl2, ids2 = auts.sylow(2)
    assert syl2.n == 8
    assert syl2.exponent() == 4
    assert not syl2.is_abelian()  # dihedral of order 8
    syl3, _ = auts.sylow(3)
    assert syl3.n == 3
    assert len(ids2) == 8


def test_aut_inner_automorphism_count_divides():
    for name in ("q8", "d8", "m16", "pauli16"):
        g = builtin_group(name)
        auts = aut_group(g)
        inner = g.n // center(g).order
        assert auts.order % inner == 0


def test_aut_group_is_bounded_by_its_entries_not_its_order():
    # C243's one generator has 162 candidate images: 162 x 243 entries fit
    assert aut_group(cyclic_group(243)).order == 162
    # C7^3's three generators have 342 each: 342^3 x 343 entries do not
    G = builtin_group("c7xc7xc7")
    with pytest.raises(BudgetError, match="automorphism candidate space exceeds the batch budget"):
        aut_group(G)
    assert "aut_group" not in G._cache


def test_aut_group_has_no_member_cap_and_refuses_a_sylow_past_the_order_cap(monkeypatch):
    # |Aut(C4^3)| = |GL_3(Z/4)| = 2^9 |GL_3(F_2)| = 86016, once refused by a
    # 50,000-member cap; its Sylow 2-subgroup, of order 2^12 = 4096, passes
    # the 729 table cap and must be refused before any member is powered,
    # conjugated or multiplied
    auts = aut_group(builtin_group("c4xc4xc4"))
    assert auts.order == 86016
    calls = []

    def spy(m, identity, p, p_power, conj, step):
        def counted(name, f):
            return lambda *args: (calls.append(name), f(*args))[1]
        return sylow_ascent(m, identity, p, counted("p_power", p_power),
                            counted("conj", conj), counted("step", step))
    monkeypatch.setattr(morphisms, "sylow_ascent", spy)
    with pytest.raises(BoundError, match="group order 4096 exceeds the supported maximum 729"):
        auts.sylow(2)
    assert calls == []
    assert auts.sylow(7)[0].n == 7  # an admitted Sylow order still ascends
    assert "p_power" in calls


def test_aut_group_memory_stays_bounded_without_a_member_cap():
    # Aut(C4^3) holds 86016 member rows of 64 int32 entries (21 MiB) and its
    # row index; the search's blocks, bijective filter and lexsort peaked at
    # 96.6 MiB traced (classes, orders and test columns built beforehand)
    G = builtin_group("c4xc4xc4")
    G.conj_table, G.element_orders, _test_columns(G)
    tracemalloc.start()
    try:
        auts = aut_group(G)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert auts.matrix.shape == (86016, 64) and auts.matrix.dtype == np.int32
    assert held < 1.1 * auts.matrix.nbytes
    assert peak < 5 * auts.matrix.nbytes


def test_aut_group_deterministic_order():
    a = aut_group(builtin_group("d8"))
    b = aut_group(builtin_group("d8"))
    assert (a.matrix == b.matrix).all()


def test_aut_group_as_group_is_isomorphic_table():
    auts = aut_group(builtin_group("q8"))
    grp, members = auts.as_group()
    assert grp.n == 24
    assert members is auts.matrix and not members.flags.writeable
    # the table must agree with composition of the member maps
    for i in (1, 5, 17):
        for j in (2, 9, 23):
            k = int(grp.table[i, j])
            assert (members[k] == members[j][members[i]]).all()


def test_generator_image_search_takes_its_blocks_from_groups(monkeypatch):
    """Patching groups.CHUNK_ENTRIES alone splits C4 x C2's 64 candidate maps
    into law checks of at most 5 rows, with the same surviving rows."""
    G = builtin_group("c4xc2")
    choices, act = [list(range(G.n))] * _test_columns(G).size, _trivial_action(G)
    whole = morphisms._image_rows(G, choices, act, "homomorphisms")
    checked = []
    monkeypatch.setattr(morphisms, "_law_rows", lambda G, act, U: checked.append(len(U)) or _law_rows(G, act, U))
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", 5 * G.n)
    np.testing.assert_array_equal(morphisms._image_rows(G, choices, act, "homomorphisms"), whole)
    assert max(checked) == 5 and sum(checked) == 64


def test_then_rows_composes_one_frontier_block_at_a_time(monkeypatch):
    """Each composite `_then_rows` looks up holds at most CHUNK_ENTRIES image
    entries, read from groups, and the positions match the one-shot product."""
    G = builtin_group("d8xc2")
    M = aut_group(G).matrix
    index, xs, cols = _RowIndex(M), np.arange(M.shape[0]), np.array([1, 5])
    whole = index.require(M[cols][:, M[xs]].reshape(-1, G.n), "closure").reshape(cols.size, -1)
    looked_up = []
    require = _RowIndex.require
    monkeypatch.setattr(_RowIndex, "require", lambda self, rows, what: looked_up.append(rows.size)
                        or require(self, rows, what))
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", 7 * G.n)
    got = [hits.reshape(cols.size, -1) for hits in morphisms._then_rows(M, index, "closure")(xs, cols)]
    np.testing.assert_array_equal(np.concatenate(got, axis=1), whole)
    assert max(looked_up) == 3 * cols.size * G.n and sum(looked_up) == cols.size * M.size


def _generator_mode_modules(name):
    """(G, N, ends, index, identity position) for each Laue module of G past
    PAIRS_CAP."""
    G = builtin_group(name)
    for N in abelian_normal_subgroups(G):
        ends = _endo_matrix(G, N)
        if ends.shape[0] > PAIRS_CAP:
            index = _RowIndex(ends)
            ident = int(index.require(np.arange(G.n, dtype=ends.dtype)[None, :], "identity")[0])
            yield G, N, ends, index, ident


@pytest.mark.parametrize("name", ["es27xc3", "m27xc3"])
def test_monoid_generators_match_the_reach_oracle(name, monkeypatch):
    """On every generator-mode Laue module, joining each new generator gives
    the generators of the loop that multiplied everything reached by every
    generator after each join, and multiplies no (member, generator) pair
    twice; blocks of 50 image rows end most rounds in a partial block."""
    modules = list(_generator_mode_modules(name))
    assert len(modules) == 4
    for budget in (CHUNK_ENTRIES, 50 * 81):
        monkeypatch.setattr(groups, "CHUNK_ENTRIES", budget)
        for G, _, ends, index, ident in modules:
            ledger = oracle.JoinLedger(G.n)
            with monkeypatch.context() as mp:
                mp.setattr(morphisms, "join", ledger.wrap(morphisms.join))
                gens = morphisms._monoid_generators(ends, index, ident)
            assert gens == oracle.monoid_generators_by_reach(ends, index, ident)
            (reached, done), = ledger.masks.values()
            assert reached.all() and sorted(done) == sorted(gens)


def test_aut_sylow_ascent_multiplies_each_pair_once(monkeypatch):
    """Across the whole ascent to the Sylow 2-subgroup of Aut(D8 x C2), order
    64, no (member, generator) pair is multiplied twice, and no block of
    composites passes the block budget."""
    G = builtin_group("d8xc2")
    auts = AutomorphismGroup(G, aut_group(G).matrix)
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", 5 * G.n)
    ledger = oracle.JoinLedger(G.n)
    monkeypatch.setattr(groups, "join", ledger.wrap(groups.join))
    syl, ids = auts.sylow(2)
    (reached, done), = ledger.masks.values()
    assert syl.n == len(ids) == np.count_nonzero(reached) == 64
    assert len(done) > 1 and ledger.products == sum(np.count_nonzero(row) for row in done.values())


def test_laue_inverse_check_reads_the_automorphisms_in_blocks(monkeypatch):
    """Generator mode inverts the automorphism rows one block at a time: on
    es27 x C3's four generator-mode modules (2916 automorphisms of 81 entries)
    no `_inverse_rows` call holds more than CHUNK_ENTRIES entries, and every
    verdict stands."""
    sizes = []
    inverse_rows = morphisms._inverse_rows
    monkeypatch.setattr(morphisms, "_inverse_rows", lambda M: sizes.append(M.size) or inverse_rows(M))
    for G, N, *_ in _generator_mode_modules("es27xc3"):
        rep = check_laue(G, N)
        assert rep.verdict == "pass" and rep.computed["restriction"] == "constructive"
        assert rep.computed["aut_count"] == 2916
    assert len(sizes) == 4 * -(-2916 // (CHUNK_ENTRIES // 81)) and max(sizes) <= CHUNK_ENTRIES


def test_laue_looks_up_every_row_a_block_at_a_time(monkeypatch):
    """No row lookup inside check_laue, the derivation lookup of every
    endomorphism's coset-offset row included, takes more than one `blocks`
    slice of rows; at 16 rows a block every report is the unpatched one."""
    modules = [(G, N) for G, N, *_ in _generator_mode_modules("es27xc3")]
    for name in ("c3xc3", "d8", "q8xc2"):
        G = builtin_group(name)
        modules += [(G, N) for N in abelian_normal_subgroups(G)]
    expected = [check_laue(G, N) for G, N in modules]
    rows = []
    for method in ("find", "require"):
        spied = getattr(_RowIndex, method)
        monkeypatch.setattr(_RowIndex, method,
                            lambda self, r, *a, spied=spied: rows.append(len(r)) or spied(self, r, *a))
    for (G, N), want in zip(modules, expected):
        rows.clear()
        monkeypatch.setattr(groups, "CHUNK_ENTRIES", 16 * G.n)
        assert check_laue(G, N) == want
        assert rows and max(rows) <= 16
    assert max(rep.computed["end_count"] for rep in expected) > 1024


def test_laue_names_the_first_endomorphism_outside_the_derivations(monkeypatch):
    """When the derivation rows of two endomorphisms in two lookup blocks are
    lost, the witness names the earlier, as the whole-array lookup did."""
    G, N, ends, *_ = next(_generator_mode_modules("m27xc3"))
    ders = _der_matrix(G, N).copy()
    lost = _RowIndex(ders).require(coset_offsets(G, ends[[150, 40]]), "derivation")
    ders[lost] = (G.identity + np.array([[1], [2]])) % G.n  # constant rows: no derivation
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", 100 * G.n)  # blocks 1 and 0
    witness = morphisms._laue_witness(G, N, ders, ends, {})
    assert witness == "endomorphism 40 maps outside the derivation set"


def test_laue_names_the_first_automorphism_that_lacks_an_inverse(monkeypatch):
    """When inverses are missing in two row blocks, the witness names the
    first automorphism, in the earlier block, as the whole-array check did."""
    G, N, ends, *_ = next(_generator_mode_modules("m27xc3"))
    bijective = np.flatnonzero(morphisms._image_sizes(ends) == G.n)
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", 100 * G.n)
    lost = ends[bijective[[150, 40]]]  # blocks 1 and 0
    inverse_rows = morphisms._inverse_rows

    def lose(M):  # no member has an all-identity image row
        inv = inverse_rows(M)
        inv[(M[:, None, :] == lost).all(axis=2).any(axis=1)] = G.identity
        return inv
    monkeypatch.setattr(morphisms, "_inverse_rows", lose)
    witness = morphisms._laue_witness(G, N, _der_matrix(G, N), ends, {})
    assert witness == f"automorphism {bijective[40]} lacks an inverse member"
