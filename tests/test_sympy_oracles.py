"""Group invariants of groups.py against sympy's permutation groups.

Each group G is rebuilt in sympy from its right-regular representation: the
permutation x -> xg is the table column G.table[:, g], taken for g in a
generating set of G.  sympy composes permutations left to right, so
g -> (x -> xg) is an isomorphism onto the PermutationGroup, and sympy computes
every invariant there with its own algorithms, sharing no code with the
Cayley-table kernels.  The Frattini and power-commutator subgroups are
checked against sympy's derived subgroup with the p-th (p^kappa-th) powers
added, and d(H) of every subgroup of the small corpus p-groups against the
intersection of the maximal subgroups of H.  The groups are the builtin
corpus groups, the adjoint groups of the left or right p-nil rings of the
default corpus, and C3 wr C3.  The abelian invariants sympy computes also fix
the number of maps the generator-image searches of morphisms.py must find:
|Hom(A, B)| for abelian A and B, and |Aut(A)| for an abelian p-group A.
`abelian.prime_power`, which stops trial division at 2^10, is checked
against sympy's factorization.
"""

import math
import random

import pytest

from adjrings.abelian import prime_power, table_decomposition
from adjrings.adjoint import adjoint_group
from adjrings.cli import DEFAULT_GROUP_NAMES, default_corpus
from adjrings.groups import (
    abelian_normal_subgroups,
    builtin_group,
    center,
    commutator,
    commutator_subgroup,
    enumerate_subgroups,
    frattini,
    from_permutations,
    full_subgroup,
    generating_set,
    lower_central_series,
    lower_p_central_series,
    nilpotency_class,
    power_commutator_subgroup,
    prime_of,
    quotient_group,
    subgroup_min_generators,
    sylow_subgroup,
)
from adjrings.errors import BoundError
from adjrings.morphisms import _der_matrix, aut_group

import oracle

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

P_NIL_RINGS = {e.id: e.obj for e in default_corpus()
               if e.kind == "ring" and (e.obj.is_left_p_nil() or e.obj.is_right_p_nil())}


def regular(G):
    gens = generating_set(G) or [G.identity]
    return PermutationGroup([Permutation(G.table[:, g].tolist()) for g in gens])


def derived_orders(G):
    """Orders of G >= G' >= G'' >= ... down to stabilization."""
    series = [full_subgroup(G)]
    while True:
        nxt = commutator(G, series[-1], series[-1])
        if nxt.elems == series[-1].elems:
            return [H.order for H in series]
        series.append(nxt)


def p_central_orders(P, p):
    """Orders of P_1 = P, P_{i+1} = [P_i, P] P_i^p, down to 1."""
    orders, cur = [P.order()], P
    while orders[-1] > 1:
        cur = PermutationGroup(P.commutator(P, cur).generators
                               + [x ** p for x in cur.generate()])
        orders.append(cur.order())
    return orders


def primary_parts(factors):
    """The prime-power parts of a list of invariant factors, ascending."""
    return sorted(q ** e for f in factors for q, e in sympy.factorint(f).items())


def assert_matches_sympy(G):
    P = regular(G)
    assert P.order() == G.n
    assert center(G).order == P.center().order()
    lower = [H.order() for H in P.lower_central_series()]
    assert [H.order for H in lower_central_series(G)] == lower
    assert nilpotency_class(G) == (len(lower) - 1 if P.is_nilpotent else None)
    assert derived_orders(G) == [H.order() for H in P.derived_series()]
    assert len(oracle.conjugacy_classes(G)) == len(P.conjugacy_classes())
    A, _ = quotient_group(G, commutator_subgroup(G))
    factors = table_decomposition(A.table.tolist(), A.identity)[0]
    assert primary_parts(factors) == sorted(P.abelian_invariants())
    for q in sympy.primefactors(G.n):
        assert sylow_subgroup(G, q).order == P.sylow_subgroup(q).order(), q
    p = prime_of(G)
    if p is not None:
        assert [H.order for H in lower_p_central_series(G)] == p_central_orders(P, p)
        derived = P.derived_subgroup().generators
        for H, q in ((frattini(G), p), (power_commutator_subgroup(G), p ** (2 if p == 2 else 1))):
            powers = {x ** q for x in P.generate()}
            assert H.order == PermutationGroup(derived + list(powers)).order(), q


@pytest.mark.parametrize("name", DEFAULT_GROUP_NAMES)
def test_builtin_group_matches_sympy(name):
    assert_matches_sympy(builtin_group(name))


@pytest.mark.parametrize("ring_id", list(P_NIL_RINGS))
def test_p_nil_adjoint_group_matches_sympy(ring_id):
    assert_matches_sympy(adjoint_group(P_NIL_RINGS[ring_id]).group)


def test_wreath_c3_c3_matches_sympy():
    # C3 wr C3 on 9 points, of maximal class: P_2 = [G, G] is elementary abelian
    # of order 9, so P_3 = [P_2, G] (order 3) comes from commutators alone
    G = from_permutations([(1, 2, 0, 3, 4, 5, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2)])
    assert [H.order for H in lower_p_central_series(G)] == [81, 9, 3, 1]
    assert_matches_sympy(G)


def test_p_central_oracle_by_hand():
    # M16 = <a, b | a^8, b^2, b a b^-1 = a^5>: P_2 = <a^2>, [a^2, b] = 1, P_3 = <a^4>
    assert p_central_orders(regular(builtin_group("m16")), 2) == [16, 4, 2, 1]
    # exponent 3 and class 2: P_2 = [G, G] = Z(G) of order 3, then P_3 = 1
    assert p_central_orders(regular(builtin_group("es27")), 3) == [27, 3, 1]


SMALL_GROUP_NAMES = [name for name in DEFAULT_GROUP_NAMES if builtin_group(name).n <= 32]


@pytest.mark.parametrize("name", [n for n in SMALL_GROUP_NAMES if prime_of(builtin_group(n))])
def test_subgroup_min_generators_match_maximal_subgroups(name):
    # Burnside's basis theorem: d(H) = log_p [H : Phi(H)], with Phi(H) here the
    # intersection of the maximal subgroups of H as a group of its own
    G = builtin_group(name)
    for H in enumerate_subgroups(G):
        phi = oracle.frattini_via_maximals(H.as_group())
        assert H.order // phi.order == prime_of(G) ** subgroup_min_generators(G, H), H.elems
ABELIAN_P_GROUP_NAMES = [name for name in DEFAULT_GROUP_NAMES
                         if builtin_group(name).is_abelian() and prime_of(builtin_group(name))]


@pytest.mark.parametrize("name", SMALL_GROUP_NAMES)
def test_central_derivations_count_homs(name):
    # on a central module the twisted rule is the hom rule, and
    # |Hom(A, B)| = prod gcd(a_i, b_j) over cyclic decompositions of A = G/G' and B
    G = builtin_group(name)
    a = regular(G).abelian_invariants()
    central = set(center(G).elems)
    modules = [N for N in abelian_normal_subgroups(G) if set(N.elems) <= central]
    assert modules
    for N in modules:
        b = regular(N.as_group()).abelian_invariants()
        want = math.prod(math.gcd(x, y) for x in a for y in b)
        assert _der_matrix(G, N).shape[0] == want, N.elems


def hillar_rhea_order(p, exps):
    """|Aut(Z/p^e_1 + ... + Z/p^e_n)|, e_1 <= ... <= e_n (C. J. Hillar and
    D. L. Rhea, Automorphisms of finite abelian groups, Amer. Math. Monthly
    114 (2007), Thm. 4.1): with d_k = max{l : e_l = e_k} and
    c_k = min{l : e_l = e_k}, the order is
    prod_k (p^d_k - p^(k-1)) * prod_j p^(e_j (n - d_j)) * prod_i p^((e_i - 1)(n - c_i + 1))."""
    n, order = len(exps), 1
    for k, ek in enumerate(sorted(exps), start=1):
        d = sum(x <= ek for x in exps)
        c = 1 + sum(x < ek for x in exps)
        order *= (p ** d - p ** (k - 1)) * p ** (ek * (n - d)) * p ** ((ek - 1) * (n - c + 1))
    return order


def test_hillar_rhea_by_hand():
    assert hillar_rhea_order(2, [1, 1, 1, 1]) == 20160  # |GL_4(2)|
    assert hillar_rhea_order(3, [2, 2]) == 3888  # |GL_2(Z/9)|
    assert hillar_rhea_order(3, [3, 1]) == 324
    assert hillar_rhea_order(5, [1]) == 4


def test_abelian_p_groups_are_all_found():
    assert len(ABELIAN_P_GROUP_NAMES) == 27


@pytest.mark.parametrize("name", ABELIAN_P_GROUP_NAMES)
def test_abelian_aut_order_matches_hillar_rhea(name):
    G = builtin_group(name)
    p = prime_of(G)
    exps = [sympy.multiplicity(p, q) for q in regular(G).abelian_invariants()]
    assert aut_group(G).order == hillar_rhea_order(p, exps)


def test_prime_power_matches_sympy():
    # every n below 2^14; prime powers p^k with p past the 2^10 trial bound,
    # below 3.3e24, with near misses; and strong pseudoprimes to the bases
    # 2..7, 2..23 and 2..37, the last caught by base 41 alone
    rng = random.Random(0)
    ns = list(range(2**14))
    for _ in range(300):
        p = sympy.nextprime(rng.randrange(2**10, 2 ** rng.randint(11, 81)))
        k = rng.randint(1, 81 // p.bit_length())
        ns += [p**k, p**k + 2, p * sympy.nextprime(p)]
    ns += [3215031751, 3825123056546413051, 318665857834031151167461]
    for n in (n for n in ns if 2 <= n < 3317044064679887385961981):
        b, e = sympy.perfect_power(n) or (n, 1)  # e the largest such exponent
        assert prime_power(n) == ((int(b), int(e)) if sympy.isprime(b) else None), n
    assert prime_power(0) is prime_power(1) is None
    assert prime_power(2**200) == (2, 200)
    for n in (sympy.nextprime(10**25), 1031**9):  # no prime factor below 2^10
        with pytest.raises(BoundError):
            prime_power(n)
