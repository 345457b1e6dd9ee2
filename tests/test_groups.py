"""Group-core tests pinned to independently computed values.

Dihedral subgroup counts use the divisor identity tau(n) + sigma(n) for the
order-2n dihedral group; omega/center/exponent anchors were computed by hand
from the defining presentations.
"""

import functools
import itertools
import json
import re
import time
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjrings import groups, morphisms, rings
from adjrings.abelian import table_decomposition
from adjrings.adjoint import adjoint_group
from adjrings.cli import ALL_CHECKS, DEFAULT_GROUP_NAMES, default_corpus, run_verification
from adjrings.errors import (
    BoundError,
    BudgetError,
    InvalidArgumentError,
    InvalidElementError,
    InvalidStructureError,
)
from adjrings.groups import (
    FiniteGroup,
    _right_search,
    agemo,
    alternating4,
    builtin_group,
    center,
    closed_mask,
    closure,
    commutator_subgroup,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    enumerate_subgroups,
    frattini,
    from_permutations,
    full_subgroup,
    generating_set,
    group_from_json,
    is_normal,
    is_p_central,
    load_group,
    lower_central_series,
    lower_p_central_series,
    min_generators,
    modular_group,
    nilpotency_class,
    omega_set,
    omega_subgroup,
    pauli_group,
    power_commutator,
    power_commutator_subgroup,
    power_map,
    prime_of,
    central_target,
    quotient_group,
    rank,
    semidihedral_group,
    semidirect_cyclic,
    subgroup_exponent,
    subgroup_min_generators,
    sylow_rank,
    sylow_subgroup,
    trivial_subgroup,
    upper_central_series,
    widest_subgroup,
)
from adjrings.morphisms import _der_matrix, aut_group, der_subring_trivial_on_omega

import oracle


def subgroups_by_joins(G):
    """Reference lattice enumeration: close the cyclic subgroups under joins."""
    subs = {closure(G, [x]).elems for x in range(G.n)}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(subs), 2):
            j = closure(G, set(a) | set(b)).elems
            if j not in subs:
                subs.add(j)
                changed = True
    return subs


# smallest loop with two-sided identity that is not a group
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def intercalates(tab, identity) -> np.ndarray:
    """Every 2x2 Latin subsquare off the identity row and column, as rows
    (a, b, c, d) with a < b, c < d, ac = bd and ad = bc."""
    tab = np.asarray(tab)
    n = tab.shape[0]
    column = np.argsort(tab, axis=1)  # column[a, v]: where row a holds v
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    d = column[a, tab[b, c]]
    ok = (a < b) & (c < d) & (tab[b, d] == tab[a, c])
    ok &= (a != identity) & (b != identity) & (c != identity) & (d != identity)
    return np.stack([a, b, c, d], axis=1)[ok]


def swap_intercalate(tab, a, b, c, d) -> np.ndarray:
    """The table with entries (a, c) <-> (a, d) and (b, c) <-> (b, d) swapped;
    on an intercalate it stays a Latin square with the same identity."""
    out = np.array(tab)
    out[[a, a, b, b], [c, d, c, d]] = out[[a, a, b, b], [d, c, d, c]]
    return out


def dihedral_subgroup_count(two_n):
    n = two_n // 2
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return len(divisors) + sum(divisors)


class TestBasics:
    def test_cyclic(self):
        g = cyclic_group(12)
        assert g.n == 12 and g.exponent() == 12 and g.is_abelian()
        assert g.element_orders[5] == 12 and g.element_orders[8] == 3
        assert g.inverses[5] == 7 and power_map(g, 5)[7] == 35 % 12

    def test_dihedral_center_and_class(self):
        d8 = dihedral_group(8)
        assert center(d8).order == 2
        assert commutator_subgroup(d8).order == 2
        assert nilpotency_class(d8) == 2
        assert d8.exponent() == 4
        assert not d8.is_abelian()

    def test_d16_series(self):
        d16 = dihedral_group(16)
        lcs = lower_central_series(d16)
        assert [s.order for s in lcs] == [16, 4, 2, 1]
        ucs = upper_central_series(d16)
        assert [s.order for s in ucs] == [1, 2, 4, 16]
        assert nilpotency_class(d16) == 3

    def test_quaternion(self):
        q8 = builtin_group("q8")
        assert q8.exponent() == 4
        assert center(q8).order == 2
        assert nilpotency_class(q8) == 2
        assert min_generators(q8) == 2
        assert len(omega_set(q8, 1)) == 2

    def test_non_nilpotent(self):
        assert nilpotency_class(dihedral_group(12)) is None
        assert nilpotency_class(alternating4()) is None

    def test_conjugacy_classes(self):
        q8 = builtin_group("q8")
        sizes = sorted(len(c) for c in oracle.conjugacy_classes(q8))
        assert sizes == [1, 1, 2, 2, 2]


class TestValidation:
    def test_rejects_non_latin(self):
        with pytest.raises(InvalidStructureError, match="Latin"):
            FiniteGroup([[0, 1], [1, 1]])

    @pytest.mark.parametrize("table", [
        pytest.param([[0, 1.5], [1.5, 0]], id="float"),
        pytest.param(np.array([[0, 1], [1, 0]], dtype=bool), id="bool"),
        pytest.param(np.array([[0, 1], [1, 2**32]]), id="int64-past-int32"),
    ])
    def test_rejects_a_table_that_is_not_int32_indices(self, table):
        # casting would truncate 1.5 to 1, read True as 1, or wrap 2^32 to 0,
        # each giving the table of C2
        with pytest.raises(InvalidStructureError, match="table entries must be int32"):
            FiniteGroup(table)

    @pytest.mark.parametrize("table", [5, [0, 1], [[[0]]]], ids=["0-d", "1-D", "3-D"])
    def test_rejects_a_table_that_is_not_two_dimensional(self, table):
        # a 0-d table used to raise IndexError reading the length of its first axis
        with pytest.raises(InvalidStructureError, match="square and non-empty"):
            FiniteGroup(table)

    def test_accepts_an_unsigned_table(self):
        assert FiniteGroup(np.array([[0, 1], [1, 0]], dtype=np.uint8)).n == 2

    def test_rejects_non_associative_loop(self):
        assert not oracle.is_associative(LOOP5)
        with pytest.raises(InvalidStructureError, match="associative"):
            FiniteGroup(LOOP5)

    def test_rejects_bad_identity(self):
        tab = [[(a + b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(InvalidStructureError, match="identity"):
            FiniteGroup(tab, identity=1)

    def test_rejects_non_associative_loop_of_order_6(self):
        # C6 with the intercalate on rows and columns 1, 4 swapped
        loop = [
            [0, 1, 2, 3, 4, 5],
            [1, 5, 3, 4, 2, 0],
            [2, 3, 4, 5, 0, 1],
            [3, 4, 5, 0, 1, 2],
            [4, 2, 0, 1, 5, 3],
            [5, 0, 1, 2, 3, 4],
        ]
        assert not oracle.is_associative(loop)
        with pytest.raises(InvalidStructureError, match="associative"):
            FiniteGroup(loop)

    def test_rejects_loop_whose_first_light_column_associates(self):
        """C3 x the order-5 loop, element (l, c) at index 3l + c: element 1 is
        (e, 1), which associates with everything, so only a later member of
        Light's set finds the failure."""
        loop = np.array(LOOP5)
        cyclic = (np.arange(3)[:, None, None] + np.arange(3)) % 3
        tab = (3 * loop[:, None, :, None] + cyclic).reshape(15, 15)
        assert (tab[tab[:, [1]]] == tab[:, tab[[1]]]).all()
        assert not oracle.is_associative(tab)
        with pytest.raises(InvalidStructureError, match="associative"):
            FiniteGroup(tab)

    def test_light_set_refuses_a_loop_that_does_not_double(self):
        """In a group each new member of Light's set at least doubles what is
        reached; this loop goes from 1 to 4 to 6 elements, so it is refused
        before any product is compared, and on every corpus group the set
        has at most log2(n) members."""
        loop = np.array([
            [0, 1, 2, 3, 4, 5],
            [1, 2, 3, 5, 0, 4],
            [2, 5, 0, 4, 1, 3],
            [3, 4, 5, 0, 2, 1],
            [4, 3, 1, 2, 5, 0],
            [5, 0, 4, 1, 3, 2],
        ])
        assert not oracle.is_associative(loop)
        with pytest.raises(InvalidStructureError, match="associative"):
            _right_search(loop, np.arange(6) == 0)
        for name in DEFAULT_GROUP_NAMES:
            G = builtin_group(name)
            assert 2 ** len(_right_search(G.table, np.arange(G.n) == G.identity)[0]) <= G.n

    def test_rejects_order_64_table_after_one_intercalate_swap(self):
        G = builtin_group("c4xc4xc4")
        quads = intercalates(G.table, G.identity)
        assert len(quads)
        bent = swap_intercalate(G.table, *quads[0])
        assert not oracle.is_associative(bent)
        with pytest.raises(InvalidStructureError, match="associative"):
            FiniteGroup(bent, identity=G.identity)

    def test_order_729_validates_within_50_mb(self):
        """C9^3 (element 81a + 9b + c) passes Light's test without the
        n^3 arrays the full comparison needs (3.3 GB at this order)."""
        a, b, c = np.indices((9, 9, 9)).reshape(3, -1)
        tab = (81 * ((a[:, None] + a) % 9) + 9 * ((b[:, None] + b) % 9) + (c[:, None] + c) % 9)
        tracemalloc.start()
        try:
            G = FiniteGroup(tab, name="c9xc9xc9")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert G.n == 729 and G.is_abelian() and G.exponent() == 9

    def test_order_cap(self):
        with pytest.raises(BoundError):
            cyclic_group(730)

    @pytest.mark.parametrize("name", ["c1000000", "d1000000", "q1000000", "sd1048576",
                                      "m15625", "es_p3_101", "m1000000000000000003"])
    def test_oversized_builtin_is_refused_before_its_elements(self, name):
        # each builder checks the order before it lists the elements: at 10^6
        # elements the list and its index dict alone take over 100 MB
        tracemalloc.start()
        try:
            with pytest.raises(BoundError, match="exceeds the supported maximum"):
                builtin_group(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("name", ["c729xc729", "c27xc27xc27"])
    def test_product_name_is_refused_before_the_product_table(self, name):
        # the factors are built, but no product table: the c729 factor's own
        # table and coordinate grid are the peak
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(BoundError, match="exceeds the supported maximum"):
                builtin_group(name)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1 and peak < 32 * 2**20

    def test_direct_product_checks_the_order_before_the_table(self):
        G, H = cyclic_group(729), cyclic_group(2)
        tracemalloc.start()
        try:
            with pytest.raises(BoundError, match="group order 1458"):
                direct_product(G, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("build, error, message", [
        pytest.param(lambda: cyclic_group(0), InvalidArgumentError, "order 0 ", id="cyclic_group(0)"),
        pytest.param(lambda: dicyclic_group(0), InvalidArgumentError, "order 0 ", id="dicyclic_group(0)"),
        pytest.param(lambda: semidirect_cyclic(0, 2, 1), InvalidArgumentError, "order 0 ",
                     id="semidirect_cyclic(0,2,1)"),
        pytest.param(lambda: semidirect_cyclic(5, 0, 1), InvalidArgumentError, "order 0 ",
                     id="semidirect_cyclic(5,0,1)"),
        pytest.param(lambda: semidirect_cyclic(-2, -3, 1), InvalidArgumentError, "order -2 ",
                     id="semidirect_cyclic(-2,-3,1)"),
        pytest.param(lambda: builtin_group("c0"), InvalidArgumentError, "order 0 ", id="c0"),
        pytest.param(lambda: builtin_group("q0"), InvalidArgumentError, "order 0 ", id="q0"),
        pytest.param(lambda: builtin_group("c-3"), InvalidArgumentError, "order -3 ", id="c-3"),
        pytest.param(lambda: FiniteGroup(np.zeros((0, 0), int)), InvalidStructureError, "non-empty",
                     id="empty-table"),
        pytest.param(lambda: FiniteGroup([]), InvalidStructureError, "non-empty",
                     id="empty-list"),
    ])
    def test_order_below_one_is_refused(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_degree_zero_permutation_gives_the_trivial_group(self):
        g = from_permutations([()])
        assert g.n == 1 and g.identity == 0 and g.table.tolist() == [[0]]


class TestSubgroups:
    def test_counts_match_divisor_identity(self):
        for order in (8, 16, 32):
            g = dihedral_group(order)
            assert len(enumerate_subgroups(g)) == dihedral_subgroup_count(order)

    def test_quaternion_count(self):
        assert len(enumerate_subgroups(builtin_group("q8"))) == 6

    def test_a4_count(self):
        assert len(enumerate_subgroups(alternating4())) == 10

    def test_matches_join_lattice(self):
        for name in ("d8", "q8", "c12", "a4", "c2xc2"):
            g = builtin_group(name)
            fast = {s.elems for s in enumerate_subgroups(g)}
            assert fast == subgroups_by_joins(g)

    def test_lattice_budget(self):
        # C2^8 has 417199 subgroups; those of order at most 8 alone hold
        # 820931 entries, past one table at the order cap (729^2 = 531441), so
        # the ascent stops within its third level and memoizes nothing
        G = builtin_group("c2xc2xc2xc2xc2xc2xc2xc2")
        started = time.perf_counter()
        with pytest.raises(BudgetError, match="subgroup lattice exceeds 531441 entries"):
            enumerate_subgroups(G)
        assert time.perf_counter() - started < 5
        assert "subgroups" not in G._cache

    def test_c2_6_lattice_fits_the_budget(self):
        # 2825 subgroups holding 26387 entries
        assert len(enumerate_subgroups(builtin_group("c2xc2xc2xc2xc2xc2"))) == 2825

    def test_lattice_budget_admits_its_exact_size(self, monkeypatch):
        # with the order cap at 2 the budget is 4 entries: C3's lattice {1}, C3
        # holds exactly 4 and is listed, C4's holds 1 + 2 + 4 = 7 and is refused
        c3, c4 = cyclic_group(3), cyclic_group(4)
        monkeypatch.setattr(groups, "MAX_ORDER", 2)
        assert [s.order for s in enumerate_subgroups(c3)] == [1, 3]
        with pytest.raises(BudgetError, match="subgroup lattice exceeds 4 entries"):
            enumerate_subgroups(c4)

    def test_normality(self):
        d8 = dihedral_group(8)
        rot = closure(d8, [next(x for x in range(8) if d8.element_orders[x] == 4)])
        assert is_normal(d8, rot)
        refl = next(s for s in enumerate_subgroups(d8)
                    if s.order == 2 and s.elems != center(d8).elems)
        assert not is_normal(d8, refl)


@functools.cache
def _sylow_table_cases():
    """(Cayley table, prime) pairs from the default corpus, by entry kind."""
    cases = {"group": [], "ring": []}
    for e in default_corpus():
        if e.kind == "group":
            cases["group"] += [(e.obj, q) for q in range(2, e.obj.n + 1)
                               if e.obj.n % q == 0 and all(q % r for r in range(2, q))]
        else:
            cases["ring"].append((adjoint_group(e.obj).group, e.obj.p))
    return cases


@functools.cache
def _corpus_p_group_lattices():
    """Every corpus p-group of order <= 128 and the Sylow p-subgroup of its
    automorphism group."""
    out = []
    for name in DEFAULT_GROUP_NAMES:
        G = builtin_group(name)
        if prime_of(G) is not None and G.n <= 128:
            out += [G, aut_group(G).sylow(prime_of(G))[0]]
    return out


class TestPGroupToolbox:
    def test_agemo_cyclic16(self):
        z16 = cyclic_group(16)
        assert agemo(z16, 2).elems == (0, 4, 8, 12)
        assert agemo(z16, 1).order == 8

    def test_agemo_c9xc3(self):
        g = builtin_group("c9xc3")
        assert agemo(g, 1).order == 3

    def test_omega_dihedral(self):
        d8 = dihedral_group(8)
        assert len(omega_set(d8, 1)) == 6
        assert omega_subgroup(d8, 1).order == 8

    def test_omega_modular27(self):
        m27 = modular_group(27)
        assert center(m27).order == 3
        assert len(omega_set(m27, 1)) == 9
        assert omega_subgroup(m27, 1).order == 9
        assert not is_p_central(m27)

    def test_torsion_index_must_be_nonnegative(self):
        c8 = cyclic_group(8)
        for G in (c8, cyclic_group(1)):
            for layer in (omega_set, omega_subgroup, agemo):
                with pytest.raises(InvalidArgumentError, match="omega index must be >= 0"):
                    layer(G, -1)
        assert omega_set(c8, 0) == (c8.identity,)
        assert omega_subgroup(c8, 0).elems == (c8.identity,)
        assert agemo(c8, 0).order == 8
        # the trivial group is a p-group for every p: each gated notion takes
        # its general path there
        c1 = cyclic_group(1)
        for n in range(3):
            assert agemo(c1, n).elems == omega_set(c1, n) == omega_subgroup(c1, n).elems == (0,)
        for layer in (frattini, power_commutator_subgroup, central_target):
            assert layer(c1).elems == (0,), layer.__name__
        assert [s.elems for s in lower_p_central_series(c1)] == [(0,)]
        assert is_p_central(c1)
        assert rank(c1) == 0
        assert widest_subgroup(c1)[1].elems == (0,)

    def test_p_central_examples(self):
        assert is_p_central(cyclic_group(8))
        assert is_p_central(builtin_group("c4xc4"))
        assert not is_p_central(builtin_group("q8"))
        assert not is_p_central(pauli_group())
        assert is_p_central(builtin_group("c9xc3"))

    def test_frattini(self, monkeypatch):
        assert frattini(dihedral_group(8)).order == 2
        assert frattini(builtin_group("q8")).order == 2
        # G'G^p against the intersection of maximal subgroups, on every
        # builtin p-group small enough for the full subgroup lattice
        groups = [builtin_group(name) for name in DEFAULT_GROUP_NAMES]
        p_groups = [G for G in groups if prime_of(G) is not None and G.n <= 128]
        assert len(p_groups) == 44
        for G in p_groups:
            assert frattini(G).elems == oracle.frattini_via_maximals(G).elems, G.name
        # only p-groups have a Frattini subgroup, or any other p-group notion;
        # a4 has no abelian normal subgroup of non-prime-power order, so the
        # module's refusal is reached on the cyclic groups
        notions = [
            ("agemo", lambda G: agemo(G, 1)),
            ("omega", lambda G: omega_set(G, 1)),
            ("the p-central series", lower_p_central_series),
            ("frattini", frattini),
            ("rank", widest_subgroup),
            ("p-centrality", is_p_central),
            ("the power-commutator subgroup", power_commutator_subgroup),
            ("the module", lambda G: der_subring_trivial_on_omega(G, full_subgroup(G))),
        ]
        searches = []
        real = morphisms._image_rows
        monkeypatch.setattr(morphisms, "_image_rows",
                            lambda *args: searches.append(args[-1]) or real(*args))
        for G in (alternating4(), cyclic_group(6), cyclic_group(12)):
            for notion, layer in notions[:-1] if G.name == "a4" else notions:
                with pytest.raises(InvalidArgumentError,
                                   match=f"^{re.escape(notion)} needs a p-group$"):
                    layer(G)
            # the module is refused before any derivation search or memo entry
            assert not [key for key in G._cache if isinstance(key, tuple) and key[0] == "der"]
        assert searches == []
        # a module from another group is refused as such, whatever its order
        with pytest.raises(InvalidArgumentError, match="must live in the same group"):
            der_subring_trivial_on_omega(cyclic_group(4), full_subgroup(cyclic_group(6)))

    def test_p_central_series(self):
        q8 = builtin_group("q8")
        series = lower_p_central_series(q8)
        assert [s.order for s in series] == [8, 2, 1]
        e16 = builtin_group("c2xc2xc2xc2")
        assert [s.order for s in lower_p_central_series(e16)] == [16, 1]

    def test_min_generators(self):
        assert min_generators(cyclic_group(16)) == 1
        assert min_generators(builtin_group("c2xc2xc2xc2")) == 4
        assert min_generators(pauli_group()) == 3
        assert min_generators(dihedral_group(16)) == 2
        assert min_generators(cyclic_group(1)) == 0
        # d(G) is read off the Frattini quotient, a p-group notion
        with pytest.raises(InvalidArgumentError, match="p-subgroup"):
            min_generators(alternating4())

    def test_generating_set_generates(self):
        for name in ("d8", "q8", "pauli16", "a4", "c12", "m27"):
            g = builtin_group(name)
            gens = generating_set(g)
            assert closure(g, gens).order == g.n
            if prime_of(g) is not None:
                assert len(gens) == min_generators(g)

    @pytest.mark.parametrize("name", DEFAULT_GROUP_NAMES)
    def test_generating_set_of_every_default_group_closes_to_it(self, name):
        G = builtin_group(name)
        assert closure(G, generating_set(G)).order == G.n

    @pytest.mark.parametrize("name, size", [
        ("c2xc2xc2xc6", 4), ("c2xc2xc2xc2xc6", 5), ("c2xc2xc2xc2xc2xc6", 6)])
    def test_generating_set_of_a_non_p_group_is_one_greedy_loop(self, name, size):
        # orders 48, 96 and 192: a search over combinations of up to 6
        # elements took 0.9 s on the first and did not finish the second
        G = builtin_group(name)
        start = time.perf_counter()
        gens = generating_set(G)
        assert time.perf_counter() - start < 1
        assert len(gens) == size
        assert closure(G, gens).order == G.n

    @pytest.mark.parametrize("name", [
        *(name for name in DEFAULT_GROUP_NAMES if prime_of(builtin_group(name)) is not None),
        "es_p3_5", "es_p3_7", "c3xc3xc3xc3", "es27xc3", "m27xc3", "c9xc3xc3", "c7xc7xc7",
        "c2xc2xc2xc2xc2xc2", "d8xd8", "q8xq8", "c9xc9xc9", "es27xc27"])
    def test_generating_set_is_the_least_first_burnside_basis(self, name):
        G = builtin_group(name)
        assert generating_set(G) == tuple(oracle.burnside_basis(G))

    def test_rank(self):
        assert rank(builtin_group("c2xc2xc2xc2")) == 4
        assert rank(dihedral_group(16)) == 2
        assert rank(builtin_group("q8")) == 2
        assert rank(cyclic_group(1)) == 0
        assert rank(builtin_group("es27")) == 2

    def test_rank_and_d_refuse_a_non_p_group(self):
        a4 = alternating4()
        with pytest.raises(InvalidArgumentError, match="rank needs a p-group"):
            rank(a4)
        assert "subgroups" not in a4._cache  # refused before the lattice is listed
        c6 = cyclic_group(6)
        with pytest.raises(InvalidArgumentError, match="p-subgroup, got order 6"):
            groups.subgroup_min_generators(c6, full_subgroup(c6))
        assert groups.subgroup_min_generators(c6, closure(c6, [2])) == 1

    def test_index_p_counts_give_d_of_every_lattice_member(self):
        # d(H) = log_p((p - 1) c + 1), c the index-p subgroups of H, against
        # |H : Phi(H)| closed in the parent table, on 88 lattices; the widest
        # subgroup is the first member with the largest d(H)
        lattices = _corpus_p_group_lattices()
        assert len(lattices) == 88
        for G in lattices:
            subs = enumerate_subgroups(G)
            ds = [subgroup_min_generators(G, H) for H in subs]
            assert groups.lattice_min_generators(G).tolist() == ds, G.name
            assert widest_subgroup(G) == (max(ds), subs[ds.index(max(ds))]), G.name

    @pytest.mark.parametrize("name", ["c2xc2xc2xc2", "d16", "es27", "c9xc3", "m27"])
    def test_index_p_counts_in_small_blocks(self, name, monkeypatch):
        # 50-entry blocks hold one to three mask rows, so every level pair
        # runs in several blocks, the last often partial
        G = builtin_group(name)
        whole = groups.lattice_min_generators(G).tolist()
        monkeypatch.setattr(groups, "CHUNK_ENTRIES", 50)
        assert groups.lattice_min_generators(G).tolist() == whole

    def test_a_count_of_the_wrong_form_is_refused(self, monkeypatch):
        # drop one of C2 x C2's three subgroups of order 2: two index-2
        # subgroups is no (2^d - 1)/(2 - 1)
        G = builtin_group("c2xc2")
        subs = enumerate_subgroups(G)
        monkeypatch.setattr(groups, "enumerate_subgroups", lambda _: subs[:2] + subs[3:])
        with pytest.raises(InvalidStructureError, match="3 is not a power of 2"):
            groups.lattice_min_generators(G)

    @pytest.mark.parametrize("kind, count", [("group", 68), ("ring", 1045)], ids=["groups", "rings"])
    def test_ranks_match_invariant_factors(self, kind, count):
        # rank and sylow_rank against the invariant factors divisible by q of
        # the abelian group (or of its abelian Sylow q-subgroup, tabled);
        # a non-abelian Sylow subgroup against d(H) over its lattice
        cases = _sylow_table_cases()[kind]
        assert len(cases) == count
        for G, q in cases:
            S = sylow_subgroup(G, q).as_group()
            if G.is_abelian() or S.is_abelian():
                A = G if G.is_abelian() else S
                factors = table_decomposition(A.table.tolist(), A.identity)[0]
                expected = sum(f % q == 0 for f in factors)
            else:
                expected = max(subgroup_min_generators(S, H) for H in enumerate_subgroups(S))
            assert sylow_rank(G, q) == (S.n, expected), (G.name, q)
            if G.n == 1 or prime_of(G) == q:
                assert rank(G) == expected, G.name

    def test_sylow(self):
        c12 = cyclic_group(12)
        assert sylow_subgroup(c12, 2).order == 4
        assert sylow_subgroup(c12, 3).order == 3
        a4 = alternating4()
        assert sylow_subgroup(a4, 2).order == 4
        assert sylow_subgroup(a4, 3).order == 3
        assert sylow_subgroup(dihedral_group(16), 2).order == 16

    @pytest.mark.parametrize("kind, count", [("group", 68), ("ring", 1045)], ids=["groups", "rings"])
    def test_sylow_matches_closure_oracle(self, kind, count):
        # every default-corpus group at every prime dividing its order, and
        # every corpus ring's adjoint group at the ring's prime
        cases = _sylow_table_cases()[kind]
        assert len(cases) == count
        for G, q in cases:
            assert sylow_subgroup(G, q).elems == oracle.sylow_by_closure(G, q).elems, (G.name, q)

    def test_power_commutator_kernel(self):
        # <a^k, [a, b] : a in A, b in B> on C8 and D8 (rotations r, reflection s)
        c8, d8 = cyclic_group(8), dihedral_group(8)
        whole, one = full_subgroup(c8), trivial_subgroup(c8)
        assert [power_commutator(c8, whole, one, k).order for k in (0, 1, 2, 4, 8)] == [1, 8, 4, 2, 1]
        rot = closure(d8, [2])  # element 2 is the rotation (1, 0)
        assert rot.order == 4
        # [r, s] = r^2 generates [<r>, D8] = D8' = Z(D8); the squares of <r> add nothing
        assert power_commutator(d8, rot, full_subgroup(d8)).elems == commutator_subgroup(d8).elems
        assert power_commutator(d8, rot, full_subgroup(d8), 2).elems == center(d8).elems
        assert power_commutator(d8, rot, rot, 2).order == 2
        assert power_commutator(d8, full_subgroup(d8), full_subgroup(d8), 2).elems == frattini(d8).elems

    def test_power_commutator_subgroup(self):
        d8 = dihedral_group(8)
        assert power_commutator_subgroup(d8).order == 2
        assert central_target(d8).order == 2
        es = builtin_group("es27")
        assert power_commutator_subgroup(es).order == 3
        assert central_target(es).order == 3
        g = builtin_group("c9xc3")
        assert power_commutator_subgroup(g).order == 3
        assert central_target(g).order == 3


class TestQuotients:
    def test_d8_mod_center(self):
        d8 = dihedral_group(8)
        q, proj = quotient_group(d8, center(d8))
        assert q.n == 4 and q.exponent() == 2
        for a in range(8):
            for b in range(8):
                assert proj[d8.table[a, b]] == q.table[proj[a], proj[b]]

    def test_q8_mod_center(self):
        q8 = builtin_group("q8")
        q, _ = quotient_group(q8, center(q8))
        assert q.n == 4 and q.exponent() == 2

    @pytest.mark.parametrize("name", ["d8", "q8", "c4xc2", "a4", "m16", "es27"])
    def test_matches_coset_reference(self, name):
        # cosets rN listed by least representative r, membership read off r n
        G = builtin_group(name)
        table = G.table.tolist()
        for N in enumerate_subgroups(G):
            if not is_normal(G, N):
                continue
            q, proj = quotient_group(G, N)
            reps = sorted({min(table[x][n] for n in N.elems) for x in range(G.n)})
            coset = {table[r][n]: i for i, r in enumerate(reps) for n in N.elems}
            assert proj == [coset[x] for x in range(G.n)]
            assert q.identity == coset[G.identity]
            assert q.table.tolist() == [[coset[table[a][b]] for b in reps] for a in reps]

    def test_rejects_non_normal(self):
        d8 = dihedral_group(8)
        refl = next(s for s in enumerate_subgroups(d8)
                    if s.order == 2 and s.elems != center(d8).elems)
        with pytest.raises(InvalidArgumentError):
            quotient_group(d8, refl)


# every builder family against the per-pair product it replaced
PER_PAIR_NAMES = sorted(
    set(DEFAULT_GROUP_NAMES) | {f"d{o}" for o in range(4, 65, 2)} | {f"q{o}" for o in range(4, 65, 4)}
    | {"sd16", "sd32", "sd64", "m16", "m27", "m32", "m64", "m81", "es_p3_5", "es_p3_7"})
PER_PAIR_CASES = [
    pytest.param(lambda name=name: builtin_group(name),
                 lambda name=name: oracle.builtin_group(name), id=name)
    for name in PER_PAIR_NAMES
] + [
    pytest.param(lambda args=args: semidirect_cyclic(*args, name="sdc"),
                 lambda args=args: oracle.semidirect_cyclic(*args, name="sdc"),
                 id=f"semidirect_cyclic{args}")
    for args in [(7, 3, 2), (9, 3, 4), (9, 6, 2), (13, 4, 5), (5, 4, 2), (8, 2, 5), (1, 3, 0)]
] + [
    pytest.param(lambda gens=gens, name=name: from_permutations(gens, name),
                 lambda gens=gens, name=name: oracle.from_permutations(gens, name), id=name)
    for name, gens in [
        ("a4_perms", [(1, 2, 0, 3), (1, 0, 3, 2)]),
        ("c3wrc3_perms", [(1, 2, 0, 3, 4, 5, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2)]),
        ("s5_perms", [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
    ]
]


class TestBuilders:
    def test_order16_catalog_distinct(self):
        names = ["c16", "c8xc2", "c4xc4", "c4xc2xc2", "c2xc2xc2xc2", "d16",
                 "sd16", "q16", "m16", "d8xc2", "q8xc2", "c4sc4", "c22sc4",
                 "pauli16"]
        prints = set()
        for name in names:
            g = builtin_group(name)
            assert g.n == 16
            orders = tuple(sorted(int(o) for o in g.element_orders))
            fp = (orders, g.is_abelian(), center(g).order,
                  commutator_subgroup(g).order, min_generators(g),
                  tuple(sorted(len(c) for c in oracle.conjugacy_classes(g))))
            prints.add(fp)
        assert len(prints) == 14

    def test_semidihedral_structure(self):
        sd16 = semidihedral_group(16)
        assert sd16.exponent() == 8
        assert nilpotency_class(sd16) == 3
        assert sorted(int(o) for o in sd16.element_orders).count(2) == 5

    def test_modular16_structure(self):
        m16 = modular_group(16)
        assert m16.exponent() == 8
        assert nilpotency_class(m16) == 2
        assert omega_subgroup(m16, 1).order == 4

    def test_dicyclic12(self):
        q12 = dicyclic_group(12)
        assert q12.n == 12
        assert sylow_subgroup(q12, 2).order == 4
        assert len(omega_set(sylow_subgroup(q12, 2).as_group(), 1)) == 2

    def test_heisenberg(self):
        es = builtin_group("es27")
        assert es.n == 27 and es.exponent() == 3
        assert center(es).order == 3 and nilpotency_class(es) == 2
        assert min_generators(es) == 2

    def test_pauli(self):
        p16 = pauli_group()
        assert p16.exponent() == 4 and center(p16).order == 4
        assert commutator_subgroup(p16).order == 2

    def test_abelian_invariants(self):
        def invariants(G):
            return table_decomposition(G.table.tolist(), G.identity)[0]
        assert invariants(cyclic_group(12)) == [12]
        assert invariants(builtin_group("c2xc6")) == [6, 2]
        assert invariants(builtin_group("c4xc2")) == [4, 2]
        assert invariants(builtin_group("c9xc3")) == [9, 3]
        d8 = dihedral_group(8)
        with pytest.raises(InvalidArgumentError, match="module subgroup must be abelian"):
            _der_matrix(d8, full_subgroup(d8))

    def test_builtin_products(self):
        g = builtin_group("c2xc2xc2")
        assert g.n == 8 and g.exponent() == 2
        assert builtin_group("d8xc2").n == 16

    def test_unknown_name(self):
        with pytest.raises(InvalidArgumentError):
            builtin_group("frobnitz")
        for name in ("es_p3_ab", "es_p3_q", "es_p3_"):
            with pytest.raises(InvalidArgumentError, match="unknown group name"):
                builtin_group(name)
        for name in ("c4x", "xc2", "c4xxc2", "x"):  # an empty factor names the whole product
            with pytest.raises(InvalidArgumentError, match=f"unknown group name {name!r}"):
                builtin_group(name)

    def test_modular_needs_order_16_for_p_2(self):
        # the order-8 construction C4 x| C2 with x -> x^3 is D8
        with pytest.raises(InvalidArgumentError, match="k >= 4 when p = 2"):
            modular_group(8)
        assert modular_group(16).n == 16 and modular_group(27).n == 27

    def test_centralizer(self):
        d8 = dihedral_group(8)
        r = next(x for x in range(8) if d8.element_orders[x] == 4)
        assert (d8.conj_table[:, r] == r).sum() == 4  # the g with g r g^-1 = r

    def test_subgroup_exponent(self):
        d8 = dihedral_group(8)
        assert subgroup_exponent(d8, full_subgroup(d8)) == 4
        assert subgroup_exponent(d8, center(d8)) == 2

    @pytest.mark.parametrize("build, reference", PER_PAIR_CASES)
    def test_table_matches_per_pair_oracle(self, build, reference):
        g, want = build(), reference()
        assert (g.name, g.identity) == (want.name, want.identity)
        assert g.table.dtype == want.table.dtype and (g.table == want.table).all()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = builtin_group("q8")
        path = tmp_path / "q8.json"
        path.write_text(json.dumps({"order": g.n, "identity": g.identity,
                                    "table": g.table.tolist()}))
        h = load_group(path)
        assert (h.table == g.table).all() and h.identity == g.identity

    def test_perm_json(self):
        obj = {"degree": 4, "perm_gens": [[1, 2, 0, 3], [1, 0, 3, 2]]}
        g = group_from_json(obj)
        assert g.n == 12
        assert nilpotency_class(g) is None

    def test_bad_json(self):
        with pytest.raises(InvalidStructureError):
            group_from_json({"order": 2})
        with pytest.raises(InvalidStructureError):
            group_from_json({"order": 3, "identity": 0, "table": [[0, 1], [1, 0]]})

    @pytest.mark.parametrize("obj, match", [
        ({"order": 2.9, "identity": 0, "table": [[0, 1], [1, 0]]}, "order must be an integer"),
        ({"order": 2, "identity": False, "table": [[0, 1], [1, 0]]}, "identity must be"),
        ({"order": 2, "identity": 0, "table": [[0, 1.9], [1.2, 0]]}, "table row 0 entry 1"),
        ({"order": 2, "identity": 0, "table": [[0, 1], [1]]}, "table row 1 has 1 items"),
        ({"degree": 0, "perm_gens": []}, "at least one permutation"),
    ])
    def test_json_fields_are_checked(self, obj, match):
        with pytest.raises(InvalidStructureError, match=match):
            group_from_json(obj)

    def test_integral_floats_pass(self):
        g = group_from_json({"order": 2.0, "identity": 0.0, "table": [[0, 1.0], [1, 0]]})
        assert g.n == 2 and g.identity == 0


def _primes_dividing(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


@functools.cache
def _small_corpus_groups():
    return [entry.obj for entry in default_corpus() if entry.kind == "group" and entry.obj.n <= 81]


NAMES = st.sampled_from(["c12", "d8", "q8", "m16", "sd16", "a4", "es27", "c9xc3", "pauli16"])


class TestClosureKernel:
    def test_every_corpus_closure_matches_the_bfs_oracle(self, monkeypatch):
        # every mask the kernel closes in a serial default-corpus run: the
        # seeds of closure and power_commutator (called in groups) and the
        # masks of additive_closure (called in rings)
        calls = {groups: {}, rings: {}}
        kernel = groups.closed_mask

        def spy(seen):
            def closed(table, mask):
                seed = np.flatnonzero(mask)
                out = kernel(table, mask)
                seen.setdefault((id(table), seed.tobytes()),
                                (table, seed, tuple(np.flatnonzero(out).tolist())))
                return out
            return closed

        for module, seen in calls.items():
            monkeypatch.setattr(module, "closed_mask", spy(seen))
        run_verification(default_corpus(), list(ALL_CHECKS), jobs=1)
        assert len(calls[groups]) > 1000 and len(calls[rings]) > 100
        as_group = {}  # the tables stay referenced by `calls`, so their ids stay theirs
        for table, seed, elems in [*calls[groups].values(), *calls[rings].values()]:
            if id(table) not in as_group:
                identity = np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0]
                as_group[id(table)] = FiniteGroup(table, identity=int(identity))
            assert oracle.closure_by_bfs(as_group[id(table)], seed).elems == elems, seed

    def test_spanning_searches_close_no_mask(self, monkeypatch):
        # Light's set, every generating set and the generator-image fill plan
        # come from one right-product walk: over every corpus group, building
        # the group from its table, its generating set and its fill plan call
        # closed_mask nowhere (Phi(G), where a p-group's set starts, is taken first)
        corpus = [entry.obj for entry in default_corpus() if entry.kind == "group"]
        for G in corpus:
            groups.release_memo(G)
            if prime_of(G):
                frattini(G)
        calls = []
        kernel = groups.closed_mask
        monkeypatch.setattr(groups, "closed_mask",
                            lambda table, mask: calls.append(len(table)) or kernel(table, mask))
        for G in corpus:
            assert FiniteGroup(G.table, identity=G.identity).n == G.n
            generating_set(G)
            assert len(morphisms._bfs_plan(G)) == G.n - 1
        assert len(corpus) == 57 and calls == []

    def test_kernel_adds_every_product_of_two_members(self, monkeypatch):
        # C40: the multiples of 5 joined with the generator 1 at 5-entry
        # blocks.  Each round reaches the next member of each coset of <5>, in
        # row blocks of 5 and then 3 members, and 5k + r is reached from
        # 5k + r - 1 alone; so a kernel that stopped after one round, or
        # skipped a row block (the last, partial one), would end short of all
        # 40 elements.  In D6 = S3 the reflections 1 and 3 generate all 6
        # elements, but <1><3> holds 4: past round one the old generator must
        # multiply too.  closed_mask is one join, from 0..7 on C40's table
        monkeypatch.setattr(groups, "CHUNK_ENTRIES", 5)
        step = groups._table_step(cyclic_group(40).table)
        mask, gens = np.arange(40) % 5 == 0, [5]
        assert groups.join(mask, gens, [1], step) is mask and mask.all() and gens == [5, 1]
        mask = np.arange(6) < 2
        assert groups.join(mask, [1], [3], groups._table_step(dihedral_group(6).table)).all()
        mask = np.arange(40) < 8
        assert closed_mask(cyclic_group(40).table, mask) is mask and mask.all()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_corpus_closures_and_sylows_match_the_oracles(self, data):
        G = data.draw(st.sampled_from(_small_corpus_groups()))
        elems = st.lists(st.integers(0, G.n - 1), max_size=4)
        seed = data.draw(elems)
        assert closure(G, seed).elems == oracle.closure_by_bfs(G, seed).elems, seed
        A, B, k = closure(G, data.draw(elems)), closure(G, data.draw(elems)), data.draw(st.integers(0, 9))
        t, inv = G.table, G.inverses
        powers = [functools.reduce(lambda y, _: t[y, a], range(k), G.identity) for a in A.elems]
        comms = [t[t[t[inv[a], inv[b]], a], b] for a in A.elems for b in B.elems]
        assert power_commutator(G, A, B, k).elems == oracle.closure_by_bfs(G, powers + comms).elems
        for p in _primes_dividing(G.n):
            assert sylow_subgroup(G, p).elems == oracle.sylow_by_closure(G, p).elems, p

    def test_kernel_multiplies_each_member_by_each_generator_once(self, monkeypatch):
        # over every corpus group: its Frattini subgroup, Omega_1 and Sylow
        # subgroups, and closures of pairs, at the default block budget and at
        # 50 entries, where most rounds end in a partial block
        corpus = [entry.obj for entry in default_corpus() if entry.kind == "group"]
        kernel = groups.join
        for budget in (groups.CHUNK_ENTRIES, 50):
            monkeypatch.setattr(groups, "CHUNK_ENTRIES", budget)
            ledger = oracle.JoinLedger()
            monkeypatch.setattr(groups, "join", ledger.wrap(kernel))
            for G in corpus:
                groups.release_memo(G)
                if prime_of(G):
                    frattini(G)
                    omega_subgroup(G, 1)
                for p in _primes_dividing(G.n):
                    sylow_subgroup(G, p)
                for x in range(0, G.n, 7):
                    closure(G, [x, G.n - 1 - x])
                groups.release_memo(G)
            assert len(ledger.masks) > 300 and ledger.products > 10**4

    @pytest.mark.parametrize("seed", [[8], [-1]], ids=["past-the-end", "negative"])
    def test_out_of_range_seed_is_refused(self, seed):
        # numpy would wrap -1 to the last element
        G = builtin_group("c2xc4")
        with pytest.raises(InvalidElementError):
            closure(G, seed)
        with pytest.raises(InvalidElementError):
            oracle.closure_by_bfs(G, seed)

    @pytest.mark.parametrize("name", ["c16", "d16", "m27", "es27", "c9xc3", "c2xc2xc2xc2"])
    def test_small_blocks_match_the_bfs_oracle(self, name, monkeypatch):
        # 50-entry blocks leave a partial last block at most member counts
        monkeypatch.setattr(groups, "CHUNK_ENTRIES", 50)
        G = builtin_group(name)
        for seed in [[x] for x in range(G.n)] + [[x, G.n - 1 - x] for x in range(G.n)]:
            assert closure(G, seed).elems == oracle.closure_by_bfs(G, seed).elems, seed

    def test_small_blocks_match_the_bfs_oracle_on_ring_addition(self, monkeypatch):
        monkeypatch.setattr(groups, "CHUNK_ENTRIES", 50)
        ring = rings.zero_ring(3, (2, 1, 1))
        plus = FiniteGroup(ring.tables.add, identity=0)
        for x in range(ring.order):
            seed = np.zeros(ring.order, dtype=bool)
            seed[[x, ring.order - 1 - x]] = True
            assert (np.flatnonzero(rings.additive_closure(ring, seed)).tolist()
                    == list(oracle.closure_by_bfs(plus, [x, ring.order - 1 - x]).elems)), x


class TestProperties:
    @given(st.integers(0, 5000), st.integers(1, 10 ** 5), st.integers(1, 10 ** 5))
    @settings(max_examples=200, deadline=None)
    def test_blocks_partition_the_range_within_the_budget(self, count, width, budget):
        with unittest.mock.patch.object(groups, "CHUNK_ENTRIES", budget):
            parts = list(groups.blocks(count, width))
        assert [i for b in parts for i in range(count)[b]] == list(range(count))
        assert all(b.stop - b.start == 1 or (b.stop - b.start) * width <= budget for b in parts)

    def test_blocks_of_an_int64_count_are_not_listed(self):
        # a plane of enumerate_rings may hold up to 2^63 - 1 values
        parts = groups.blocks(2 ** 62, 1)
        assert not hasattr(parts, "__len__")
        assert next(parts) == slice(0, groups.CHUNK_ENTRIES)
        assert next(parts) == slice(groups.CHUNK_ENTRIES, 2 * groups.CHUNK_ENTRIES)

    @given(NAMES, st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_cyclic_closure_order(self, name, seed):
        g = builtin_group(name)
        x = seed % g.n
        assert closure(g, [x]).order == g.element_orders[x]
        assert power_map(g, g.element_orders[x])[x] == g.identity

    @given(NAMES, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_is_automorphism(self, name, a, b, c):
        g = builtin_group(name)
        x, y, z = a % g.n, b % g.n, c % g.n
        conj = g.conj_table
        assert conj[x, g.table[y, z]] == g.table[conj[x, y], conj[x, z]]

    @given(NAMES)
    @settings(max_examples=20, deadline=None)
    def test_lagrange(self, name):
        g = builtin_group(name)
        for s in enumerate_subgroups(g):
            assert g.n % s.order == 0

    @given(st.sampled_from(["c2xc2", "c4", "c6", "d8", "q8", "c4xc2", "c2xc2xc2", "d12",
                            "q16", "m16", "c4xc4", "d8xc2"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_light_test_matches_cubic_oracle(self, name, data):
        """Relabel a builtin table at random, swap up to three intercalates
        off the identity: the table is accepted exactly when every triple
        associates."""
        g = builtin_group(name)
        perm = np.array(data.draw(st.permutations(range(g.n))))
        tab = np.empty_like(g.table)
        tab[np.ix_(perm, perm)] = perm[g.table]
        identity = int(perm[g.identity])
        for _ in range(data.draw(st.integers(0, 3))):
            quads = intercalates(tab, identity)
            if len(quads):
                tab = swap_intercalate(tab, *quads[data.draw(st.integers(0, len(quads) - 1))])
        try:
            FiniteGroup(tab, identity=identity)
            accepted = True
        except InvalidStructureError as exc:
            assert "associative" in str(exc)
            accepted = False
        assert accepted == oracle.is_associative(tab)

    @given(NAMES, st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_inverse_involution(self, name, a):
        g = builtin_group(name)
        x = a % g.n
        assert g.inverses[g.inverses[x]] == x
        assert g.table[x, g.inverses[x]] == g.identity
