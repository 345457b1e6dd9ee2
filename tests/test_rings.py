"""Ring core tests.

Expected values for the 3Z/27Z and 4Z/16Z fixtures are computed by an
independent oracle: plain integer arithmetic modulo n, with ring elements
identified with the integers they represent.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from adjrings import groups, rings
from adjrings.adjoint import adjoint_group, omega_circle_set
from adjrings.cli import builtin_ring, default_corpus
from adjrings.errors import (
    BudgetError,
    HypothesisError,
    InvalidArgumentError,
    InvalidStructureError,
)
from adjrings.rings import (
    FiniteRing,
    _associative_mask,
    additive_closure,
    enumerate_rings,
    ideal_u,
    left_annihilator,
    load_ring,
    multiples_ring,
    nilpotency_class_ring,
    omega_additive,
    quotient_ring,
    right_annihilator,
    ring_from_json,
    ring_power_chain,
    ring_to_json,
    save_ring,
    unital_ring,
    zero_ring,
)

import oracle


class ModOracle:
    """aZ/nZ with integer arithmetic; the independent reference."""

    def __init__(self, a: int, n: int):
        self.a, self.n = a, n
        self.elements = list(range(0, n, a))

    def circle(self, x, y):
        return (x + y + x * y) % self.n

    def circle_inverse(self, x):
        out = [y for y in self.elements if self.circle(x, y) == 0 and self.circle(y, x) == 0]
        return out[0] if out else None

    def circle_power(self, x, k):
        acc = 0
        for _ in range(k):
            acc = self.circle(acc, x)
        return acc


def circle_power(ring, x, k):
    """k-fold circle power of x, through the ring's index tables."""
    i = ring.tables.circle_power(np.array([oracle.index(ring, x)]), k)[0]
    return oracle.element(ring, int(i))


def circle_inverse(ring, x):
    """Circle inverse of x read off the adjoint group, or None outside it."""
    A = adjoint_group(ring)
    g = A.position[oracle.index(ring, x)]
    if g < 0:
        return None
    return oracle.element(ring, int(A.member_idx[A.group.inverses[g]]))


def ring_3z27():
    return multiples_ring(3, 27)


def to_int_3z27(x):
    # basis element of the re-based ring corresponds to 3
    return (3 * x[0]) % 27


def from_int_3z27(v):
    assert v % 3 == 0
    return ((v // 3) % 9,)


def test_3z27_arithmetic_matches_oracle():
    ring = ring_3z27()
    mod = ModOracle(3, 27)
    assert ring.order == 9
    for xv in mod.elements:
        assert to_int_3z27(circle_inverse(ring, from_int_3z27(xv))) == mod.circle_inverse(xv)
        for yv in mod.elements:
            x, y = from_int_3z27(xv), from_int_3z27(yv)
            assert to_int_3z27(oracle.add(ring, x, y)) == (xv + yv) % 27
            assert to_int_3z27(oracle.mul(ring, x, y)) == (xv * yv) % 27
            assert to_int_3z27(oracle.circle(ring, x, y)) == mod.circle(xv, yv)


def test_3z27_worked_values():
    ring = ring_3z27()
    mod = ModOracle(3, 27)
    # frozen oracle outputs: 3+6=9, 3*6=18, 3o3=15, qi(3)=6, 3^(3)=9, 9^(3)=0
    assert (mod.circle(3, 3), mod.circle_inverse(3)) == (15, 6)
    assert (mod.circle_power(3, 3), mod.circle_power(9, 3)) == (9, 0)
    assert to_int_3z27(oracle.add(ring, from_int_3z27(3), from_int_3z27(6))) == 9
    assert to_int_3z27(oracle.mul(ring, from_int_3z27(3), from_int_3z27(6))) == 18
    assert to_int_3z27(oracle.circle(ring, from_int_3z27(3), from_int_3z27(3))) == 15
    assert to_int_3z27(circle_inverse(ring, from_int_3z27(3))) == 6
    assert to_int_3z27(circle_power(ring, from_int_3z27(3), 3)) == 9
    assert to_int_3z27(circle_power(ring, from_int_3z27(9), 3)) == 0


def test_3z27_structure():
    ring = ring_3z27()
    assert ring.is_left_p_nil() and ring.is_right_p_nil()
    assert nilpotency_class_ring(ring) == 2
    chain = ring_power_chain(ring)  # [R, R^2, R^3, ...]
    assert {to_int_3z27(x) for x in oracle.members(ring, chain[1])} == {0, 9, 18}
    assert {to_int_3z27(x) for x in oracle.members(ring, chain[2])} == {0}
    omega1, omega2 = (oracle.members(ring, omega_additive(ring, n)) for n in (1, 2))
    assert {to_int_3z27(x) for x in omega1} == {0, 9, 18}
    # 3 has additive order 9 and 9 has order 3: the omega layers they first enter
    assert from_int_3z27(3) in omega2 - omega1
    assert from_int_3z27(9) in omega1


def test_4z16():
    ring = multiples_ring(4, 16)
    assert ring.order == 4
    assert ring.exps == (2,)
    zero = oracle.zero(ring)
    # all products vanish: 4a * 4b = 16ab = 0 mod 16
    for x in oracle.elements(ring):
        for y in oracle.elements(ring):
            assert oracle.mul(ring, x, y) == zero
    assert ring.is_left_p_nil() and ring.is_right_p_nil()
    assert ring.additive_exponent_log() == 2
    assert nilpotency_class_ring(ring) == 1
    u = ideal_u(ring)
    # 8Z/16Z has index 2: coordinates {0, 2} in the basis generated by 4
    assert oracle.members(ring, u) == {(0,), (2,)}


def test_z4_annihilators_and_quotient():
    z4 = unital_ring(4)
    two = oracle.mask(z4, [(2,)])
    assert oracle.members(z4, left_annihilator(z4, two)) == {(0,), (2,)}
    assert oracle.members(z4, right_annihilator(z4, two)) == {(0,), (2,)}
    q, at = quotient_ring(z4, oracle.mask(z4, [(0,), (2,)]))
    assert q.order == 2
    # cosets {0,2} and {1,3}; the class of 1 is idempotent
    one = oracle.element(q, int(at[oracle.index(z4, (1,))]))
    assert oracle.mul(q, one, one) == one
    with pytest.raises(InvalidArgumentError):
        quotient_ring(z4, oracle.mask(z4, [(0,), (1,)]))  # not closed under addition


def test_subset_masks_are_checked():
    z4 = unital_ring(4)
    # wrong length, wrong shape, wrong dtype, and the coordinate tuples masks replaced
    for mask in (np.zeros(3, dtype=bool), np.zeros((4, 1), dtype=bool),
                 np.array([1, 0, 1, 0]), [(0,), (2,)]):
        for fn in (additive_closure, left_annihilator, right_annihilator, quotient_ring):
            with pytest.raises(InvalidArgumentError, match="bool mask"):
                fn(z4, mask)


NONZERO_RINGS = [e.obj for e in default_corpus() if e.kind == "ring" and e.obj.tensor.any()]
# every 7th nonzero corpus ring, each left p-nil one (the domain of ideal_u), and
# 4Z/64Z, a left p-nil 2-ring on which the two omega readings of ideal_u differ
QUOTIENT_RINGS = [r for i, r in enumerate(NONZERO_RINGS) if i % 7 == 0 or r.is_left_p_nil()]
QUOTIENT_RINGS.append(multiples_ring(4, 64))


@pytest.mark.parametrize("ring", QUOTIENT_RINGS, ids=lambda r: r.name)
def test_quotient_projection_is_a_ring_homomorphism(ring):
    ideals = [np.arange(ring.order) == 0, *ring_power_chain(ring)[1:],
              *(omega_additive(ring, n) for n in range(1, max(ring.exps) + 1))]
    if ring.is_left_p_nil():
        ideals += [ideal_u(ring, omega_for_two=w) for w in ((1, 2) if ring.p == 2 else (1,))]
    for ideal in ideals:
        q, at = quotient_ring(ring, ideal)
        assert (q.tables.add[at[:, None], at] == at[ring.tables.add]).all()
        assert (q.tables.mul[at[:, None], at] == at[ring.tables.mul]).all()
        assert np.array_equal(np.unique(at), np.arange(q.order))
        assert np.array_equal(at == 0, ideal)



def test_unital_rings_not_p_nil():
    assert not unital_ring(9).is_left_p_nil()
    assert not unital_ring(9).is_right_p_nil()
    assert not unital_ring(4).is_left_p_nil()


def test_quasi_inverse_absent():
    z3 = unital_ring(3)
    assert circle_inverse(z3, (2,)) is None  # 2oy = 2 + 3y = 2 mod 3
    assert circle_inverse(z3, (1,)) == (1,)  # 1o1 = 1+1+1 = 0 mod 3


def test_zero_dim_ring():
    r = FiniteRing(3, [], [])
    assert r.order == 1
    assert oracle.elements(r) == [()]
    assert r.tables.coords.shape == (1, 0)
    assert r.is_left_p_nil() and r.is_right_p_nil()
    assert nilpotency_class_ring(r) == 0


def test_additive_order_mixed_type():
    # additive order 2^n: in the omega-n layer and not in the omega-(n-1) layer
    r = zero_ring(2, [1, 2])
    layers = [oracle.members(r, omega_additive(r, n)) for n in range(3)]
    assert layers[0] == {(0, 0)}
    assert (1, 2) in layers[1] - layers[0]
    assert oracle.add(r, (1, 3), (1, 2)) == (0, 1)
    assert (0, 1) in layers[2] - layers[1]


def test_well_definedness_rejected():
    # on Z_2 + Z_4, the product b0*b0 = (0,1) is not killed by 2 = ord(b0)
    with pytest.raises(InvalidStructureError, match=r"\(0,0,1\)"):
        FiniteRing(2, [1, 2], [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])


def test_associativity_rejected():
    # x*y = y on basis of Z_3^2 fails associativity... construct a genuinely bad tensor
    bad = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(InvalidStructureError):
        FiniteRing(3, [1, 1], bad)


@pytest.mark.parametrize("p, exps, mul, match", [
    (2, [1.7], [[[1.5]]], "exponent"),          # used to build Z_2 with x*x = x
    (2, [1], [[[1.5]]], "coefficient"),
    (2, [True], [[[1]]], "exponent"),
    (2, [1], [[[True]]], "coefficient"),
    (2, [1], [[[np.True_]]], "coefficient"),
    (2, [1], [[["1"]]], "coefficient"),
    (2, [1], [[[None]]], "coefficient"),
    (2.0, [1], [[[1]]], "p"),                   # used to leak a TypeError
    (True, [1], [[[1]]], "p"),
    ("3", [1], [[[1]]], "p"),
])
def test_constructor_refuses_non_integers(p, exps, mul, match):
    with pytest.raises(InvalidStructureError, match=match):
        FiniteRing(p, exps, mul)


def test_constructor_accepts_numpy_integers():
    r = FiniteRing(np.int64(3), np.array([2], dtype=np.int64), np.array([[[3]]], dtype=np.int64))
    assert (r.p, r.exps, r.tensor.tolist()) == (3, (2,), [[[3]]])
    assert all(type(v) is int for v in (r.p, *r.exps, r.tensor[0, 0, 0], r.order))
    assert oracle.mul(r, (1,), (1,)) == (3,)


def test_enumerate_counts_tiny():
    # independent brute force on Z_4 and Z_9: every coefficient c of
    # x*y = c*x*y, kept when (ab)z = a(bz) for every element triple
    for p, e in ((2, 2), (3, 2)):
        n = p**e
        brute = [c for c in range(n)
                 if all(c * (c * a * b % n) * z % n == c * a * (c * b * z % n) % n
                        for a in range(n) for b in range(n) for z in range(n))]
        assert [r.tensor[0, 0, 0] for r in enumerate_rings(p, [e])] == brute
        assert len(brute) == n


def test_enumerate_matches_naive_p2_11():
    # independent naive filter over all 256 tensors on Z_2 x Z_2
    naive = 0
    for flat in itertools.product(range(2), repeat=8):
        t = [[[flat[0], flat[1]], [flat[2], flat[3]]], [[flat[4], flat[5]], [flat[6], flat[7]]]]

        def mul(x, y):
            acc = [0, 0]
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        acc[k] += x[i] * y[j] * t[i][j][k]
            return (acc[0] % 2, acc[1] % 2)

        els = list(itertools.product(range(2), repeat=2))
        if all(mul(mul(a, b), c) == mul(a, mul(b, c)) for a in els for b in els for c in els):
            naive += 1
    got = list(enumerate_rings(2, [1, 1]))
    assert len(got) == naive
    # determinism: same names and order on a second pass
    again = list(enumerate_rings(2, [1, 1]))
    assert [r.name for r in got] == [r.name for r in again]


def test_enumerate_matches_naive_p3_11():
    # independent naive filter over all 6561 tensors on Z_3 x Z_3: build the
    # 9 x 9 product table of each tensor, then test every element triple
    els = list(itertools.product(range(3), repeat=2))
    pairs = [(x, y) for x in els for y in els]
    expected = []
    for flat in itertools.product(range(3), repeat=8):
        t = [[flat[0:2], flat[2:4]], [flat[4:6], flat[6:8]]]
        table = {}
        for x, y in pairs:
            acc = [0, 0]
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        acc[k] += x[i] * y[j] * t[i][j][k]
            table[x, y] = (acc[0] % 3, acc[1] % 3)
        if all(table[table[a, b], c] == table[a, table[b, c]]
               for a in els for b in els for c in els):
            expected.append([[list(e) for e in plane] for plane in t])
    got = [r.tensor.tolist() for r in enumerate_rings(3, [1, 1])]
    assert len(expected) > 1 and got == expected


def _random_well_defined(rng, p, exps, n):
    """n random well-defined tensors on the type; each keeps a random share of
    its slots, so sparse (often associative) and dense ones both occur."""
    d = len(exps)
    moduli = np.array([p**e for e in exps])
    steps = np.array([[[p ** max(0, exps[k] - min(exps[i], exps[j])) for k in range(d)]
                       for j in range(d)] for i in range(d)])
    values = rng.integers(0, moduli // steps, size=(n, d, d, d)) * steps
    keep = rng.random((n, d, d, d)) < rng.random((n, 1, 1, 1))
    return (values * keep).astype(np.int64), moduli.astype(np.int64)


def _associative_on_basis(p, exps, tensor):
    """Oracle in plain integers: (e_i e_j) e_k = e_i (e_j e_k) on every basis
    triple, coordinate by coordinate mod p^e_m."""
    T, d = np.asarray(tensor).tolist(), len(exps)
    return all(
        sum(T[i][j][l] * T[l][k][m] - T[j][k][l] * T[i][l][m] for l in range(d)) % p ** exps[m] == 0
        for i, j, k, m in itertools.product(range(d), repeat=4))


def _constructs(p, exps, tensor):
    """Whether FiniteRing accepts a well-defined tensor; any refusal must be
    an associativity refusal."""
    try:
        FiniteRing(p, exps, np.asarray(tensor).tolist())
    except InvalidStructureError as exc:
        assert "associativity" in str(exc)
        return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("exps", [(1,), (2,), (1, 1), (2, 1), (1, 1, 1), (3, 1)])
def test_associative_mask_matches_ring_construction(p, exps):
    rng = np.random.default_rng([p, *exps])
    arr, moduli = _random_well_defined(rng, p, exps, 300)
    expected = [_associative_on_basis(p, exps, t) for t in arr]
    every = np.ones((len(exps),) * 3, dtype=bool)
    assert _associative_mask(arr, moduli, every).tolist() == expected
    assert [_constructs(p, exps, t) for t in arr] == expected
    if len(exps) > 1:
        assert 0 < sum(expected) < len(expected)


def _random_basis_tensor(rng, n, tensor):
    """A structure tensor on (Z/n)^2 rewritten in a random basis f = M e with
    det M a unit: T'[i,j,k] is the k-th coordinate of f_i f_j over f."""
    while True:
        (a, b), (c, d) = M = rng.integers(0, n, size=(2, 2)).tolist()
        if math.gcd(a * d - b * c, n) == 1:
            break
    u = pow(a * d - b * c, -1, n)
    Minv = [[d * u, -b * u], [-c * u, a * u]]
    r = range(2)
    return [[[sum(M[i][x] * M[j][y] * tensor[x][y][z] * Minv[z][k]
                  for x in r for y in r for z in r) % n for k in r] for j in r] for i in r]


def test_ring_construction_is_exact_beyond_int64():
    # Z/3^30[x]/(x^2) in 30 random bases: coefficients near 3^30 ~ 2^47.5, so the
    # products in the associativity test overflow int64; an odd p keeps a wrapped
    # product from agreeing by accident, as 2-power moduli dividing 2^64 would
    p, e = 3, 30
    dual = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    rng = np.random.default_rng(30)
    refused = 0
    for _ in range(30):
        tensor = _random_basis_tensor(rng, p**e, dual)
        assert _associative_on_basis(p, (e, e), tensor)
        ring = FiniteRing(p, (e, e), tensor)
        assert ring.tensor.tolist() == tensor
        tensor[1][0][1] = (tensor[1][0][1] + 1) % p**e
        assert _constructs(p, (e, e), tensor) == _associative_on_basis(p, (e, e), tensor)
        refused += not _associative_on_basis(p, (e, e), tensor)
    assert refused > 0


def test_associative_mask_near_int64_product_range():
    # coefficients of Z_(2^26) square to about 2^52, well inside int64
    p, exps = 2, (26,)
    coeffs = np.arange(2**26 - 300, 2**26, dtype=np.int64)
    arr = np.concatenate([coeffs, 2**25 + np.arange(-5, 5)]).reshape(-1, 1, 1, 1)
    mask = _associative_mask(arr, np.array([2**26], dtype=np.int64), np.ones((1, 1, 1), bool))
    assert mask.tolist() == [_associative_on_basis(p, exps, t) for t in arr]
    assert mask.all() and all(_constructs(p, exps, t) for t in arr)


def test_enumerate_order_and_names_match_slot_product():
    # reference: the well-defined slot values in lexicographic order, kept when
    # the tensor is associative; the candidate's position names the ring
    p, exps = 2, (2, 1)
    slots = [range(0, 2 ** exps[k], p ** max(0, exps[k] - min(exps[i], exps[j])))
             for i in range(2) for j in range(2) for k in range(2)]
    expected = []
    for pos, flat in enumerate(itertools.product(*slots)):
        tensor = [[list(flat[4 * i + 2 * j:4 * i + 2 * j + 2]) for j in range(2)]
                  for i in range(2)]
        if _associative_on_basis(p, exps, tensor):
            expected.append((f"enum_p2_e2.1_{pos:06d}", tensor))
    got = [(r.name, r.tensor.tolist()) for r in enumerate_rings(p, exps)]
    assert len(got) > 1 and got == expected


def test_enumerate_first_ring_memory_stays_small():
    # candidates are decoded chunk by chunk, never copied out of the slot ranges
    tracemalloc.start()
    try:
        tuple(range(2 ** 20))  # what copying the one slot of Z_(2^20) costs
        copy_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        first = next(enumerate_rings(2, (20,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.name == "enum_p2_e20_000000"
    assert peak < copy_peak / 4


def test_enumerate_budget(monkeypatch):
    # (5, (1, 1)) builds 25 + 625 + 15625 partial tensors over its first three
    # planes and 25 for each of the 1225 survivors of the third: 46900 in all,
    # against 5^8 = 390625 raw candidates
    monkeypatch.setattr(rings, "ENUM_BUDGET", 46900)
    assert sum(1 for _ in enumerate_rings(5, [1, 1])) == 793
    monkeypatch.setattr(rings, "ENUM_BUDGET", 46899)
    with pytest.raises(BudgetError, match="built over 46899 partial tensors"):
        list(enumerate_rings(5, [1, 1]))


@pytest.mark.parametrize("p, exps, match", [
    (4, [1], "not prime"), (2.0, [1], "p must be an integer"), (2, [0, 1], ">= 1"),
    (3, [-1], ">= 1"), (2, [1.5], "additive exponent"), (2, ["1"], "additive exponent"),
])
def test_enumerate_refuses_bad_type_before_the_budget(p, exps, match, monkeypatch):
    monkeypatch.setattr(rings, "ENUM_BUDGET", 0)
    with pytest.raises(InvalidStructureError, match=match):
        next(enumerate_rings(p, exps))


@pytest.mark.parametrize("exps, match", [
    ((33, 1), r"2 x 8589934591\^2 exceed int64"), ((32,), r"1 x 4294967295\^2 exceed int64"),
    # sums of 3 x (2^22 - 1)^2 fit, but plane (0, 0) would hold 2^64 and 2^63 values
    ((22, 21, 21), r"\|R\| = 18446744073709551616 values exceed int64"),
    ((21, 21, 21), r"\|R\| = 9223372036854775808 values exceed int64"),
])
def test_enumerate_refuses_int64_overflow_before_building(exps, match, monkeypatch):
    # at budget 0 the first block built would be refused, so this message
    # shows the guard runs before anything is built
    monkeypatch.setattr(rings, "ENUM_BUDGET", 0)
    with pytest.raises(BudgetError, match=match):
        next(enumerate_rings(2, exps))


def test_enumerate_admits_the_widest_int64_type():
    # 1 x (2^31 - 1)^2 < 2^63: the largest cyclic 2-type the guard admits
    first = list(itertools.islice(enumerate_rings(2, (31,)), 3))
    assert [r.tensor.tolist() for r in first] == [[[[0]]], [[[1]]], [[[2]]]]
    coeffs = np.arange(2**31 - 50, 2**31, dtype=np.int64).reshape(-1, 1, 1, 1)
    mask = _associative_mask(coeffs, np.array([2**31], dtype=np.int64), np.ones((1, 1, 1), bool))
    assert mask.all() and all(_constructs(2, (31,), t) for t in coeffs)


def test_enumerate_admits_the_widest_int64_planes():
    # |R| = 2^62: plane (0, 0) holds 2^62 values and is walked block by block
    first = list(itertools.islice(enumerate_rings(2, (20, 21, 21)), 2))
    assert [r.name for r in first] == ["enum_p2_e20.21.21_000000", "enum_p2_e20.21.21_000001"]
    assert first[1].tensor[2, 2].tolist() == [0, 0, 1]


def test_enumerate_budget_shrinks_past_three_dimensions(monkeypatch):
    # a 32-dimensional type builds one tensor per plane down to plane 992,
    # the first to decide a triple; 2^23 * 81 // 32^4 = 648 tensors end it
    # long before then
    monkeypatch.setattr(rings, "ENUM_BUDGET", 2**23)
    with pytest.raises(BudgetError, match="built over 648 partial tensors"):
        next(enumerate_rings(2, (1,) * 32))


def test_enumerate_walks_its_planes_without_recursion():
    # (2, (1,) * 15) has 225 planes; its first ring is reached with only 100
    # frames of recursion to spare
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        first = next(enumerate_rings(2, (1,) * 15))
    finally:
        sys.setrecursionlimit(limit)
    assert first.name == "enum_p2_e" + ".".join(["1"] * 15) + "_000000" and not first.tensor.any()


@pytest.mark.parametrize("p, exps", [(2, (1, 1, 1, 1)), (7, (1, 1, 1))])
def test_enumerate_names_are_exact_past_int64(p, exps):
    # 2^64 and 7^27 well-defined candidates: a ring's index is read exactly,
    # slot by slot, from its own tensor
    d = len(exps)
    for ring in itertools.islice(enumerate_rings(p, exps), 40):
        index = 0
        for coefficient in ring.tensor.ravel().tolist():
            index = index * p + coefficient
        assert ring.name == f"enum_p{p}_e{'.'.join(map(str, exps))}_{index:06d}"
    assert ring.tensor.shape == (d, d, d) and index > 0


@pytest.mark.parametrize("p, exps, count", [
    (2, (2, 1), None), (3, (1, 1), None), (2, (1, 1, 1), 200),
    (2, (20, 21, 21), 50),  # |R| = 2^62, at the edge of the int64 guard
])
def test_enumerated_rings_match_constructed_rings(p, exps, count):
    # a yielded ring skips the constructor's own check: it must be the ring
    # FiniteRing builds from its tensor's exact integers
    for ring in itertools.islice(enumerate_rings(p, exps), count):
        built = FiniteRing(p, exps, ring.tensor.tolist(), name=ring.name)
        assert {k: v for k, v in vars(ring).items() if k != "tensor"} == \
            {k: v for k, v in vars(built).items() if k != "tensor"}
        assert ring.tensor.tolist() == built.tensor.tolist()
        assert ring.tensor.dtype == object and not ring.tensor.flags.writeable
        assert all(type(c) is int for c in ring.tensor.ravel().tolist())


def test_block_check_refuses_one_bad_tensor():
    block = np.array([r.tensor.tolist() for r in enumerate_rings(2, (2, 1))], dtype=np.int64)
    assert (rings._checked_tensors(2, (2, 1), block) == block).all()
    ill = block.copy()
    ill[7, 1, 1, 0] = 1  # e_1 e_1 has order 2, so its Z_4 coordinate must be even
    with pytest.raises(InvalidStructureError, match=r"^ill-defined product: entry \(1,1,0\) = 1 "
                                                    r"is not a multiple of 2$"):
        rings._checked_tensors(2, (2, 1), ill)
    block = np.array([r.tensor.tolist() for r in enumerate_rings(3, (1, 1))], dtype=np.int64)
    block[5] = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]  # e_0 e_1 = e_1 e_0 = e_0 is not associative
    with pytest.raises(InvalidStructureError, match="^associativity fails on a basis triple$"):
        rings._checked_tensors(3, (1, 1), block)


def test_enumerator_block_check_catches_what_pruning_lets_through(monkeypatch):
    # pruning that keeps every partial tensor lets non-associative ones reach
    # the last plane; the block check over every triple must still refuse them
    real = rings._associative_mask
    monkeypatch.setattr(rings, "_associative_mask", lambda arr, moduli, triples: real(
        arr, moduli, triples) if triples.all() else np.ones(len(arr), dtype=bool))
    with pytest.raises(InvalidStructureError, match="associativity fails on a basis triple"):
        list(enumerate_rings(2, (1, 1)))


_SCAN_CHUNK = 1 << 16  # candidates per chunk of the oracle scan


def _flat_scan(p, exps):
    """The former enumerator, kept as the oracle: every well-defined candidate
    decoded in lexicographic chunks, and all basis triples tested at once."""
    d = len(exps)
    moduli = [p**e for e in exps]
    radices, steps = [], []
    for i, j, k in itertools.product(range(d), repeat=3):
        step = p ** max(0, exps[k] - min(exps[i], exps[j]))
        radices.append(moduli[k] // step)
        steps.append(step)
    count = math.prod(radices)
    every = np.ones((d, d, d), dtype=bool)
    out = []
    for start in range(0, count, _SCAN_CHUNK):
        digits = np.unravel_index(np.arange(start, min(start + _SCAN_CHUNK, count)), radices)
        arr = (np.stack(digits, axis=1) * steps).reshape(-1, d, d, d)
        mask = _associative_mask(arr, np.array(moduli, dtype=np.int64), every)
        for offset in np.flatnonzero(mask).tolist():
            name = f"enum_p{p}_e{'.'.join(map(str, exps))}_{start + offset:06d}"
            out.append((name, arr[offset].tolist()))
    return out


# (5, (1, 1)) extends a 15625-row frontier in blocks of 65536 // 125 rows;
# (2, (17,)) has one plane of 2^17 values, so it crosses a value-range boundary
@pytest.mark.parametrize("p, exps", [
    (5, (1, 1)), (2, (2, 2)), (3, (2, 1)), (2, (3, 1)), (2, (2, 1)), (2, (17,)),
])
def test_staged_enumeration_matches_flat_scan(p, exps):
    expected = _flat_scan(p, exps)
    got = [(r.name, r.tensor.tolist()) for r in enumerate_rings(p, exps)]
    assert len(expected) > 1 and got == expected


# at 64 tensors per block these four types had a block with no survivor
@pytest.mark.parametrize("p, exps", [(3, (1, 1)), (5, (1, 1)), (2, (2, 2)), (3, (2, 1))])
def test_small_block_enumeration_matches_flat_scan(p, exps, monkeypatch):
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", 64 * len(exps) ** 4)
    got = [(r.name, r.tensor.tolist()) for r in enumerate_rings(p, exps)]
    assert got == _flat_scan(p, exps)


def test_enumeration_memory_stays_bounded():
    # 7^4 candidates of 16 slots in blocks of CHUNK_ENTRIES // 16 tensors; in
    # blocks of 65536 tensors the peak was 35 MiB
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_rings(7, (1, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2833
    assert peak < 8 * 2**20


def test_enumerate_filter():
    nil = [r for r in enumerate_rings(2, [1]) if r.is_left_p_nil() and r.is_right_p_nil()]
    assert len(nil) == 1  # only the zero ring; x^2 = x is not 2-nil


def _p_nil_by_tables(ring: FiniteRing, side: int) -> bool:
    """Independent of the slot steps: every x with p x = 0 (4 x = 0 when
    p = 2) has x R = 0 (side 0) or R x = 0 (side 1), read off the tables."""
    T = ring.tables
    moduli = np.array([ring.p**e for e in ring.exps])
    small = (T.coords * (4 if ring.p == 2 else ring.p) % moduli == 0).all(axis=1)
    return not (T.mul[small] if side == 0 else T.mul[:, small]).any()


@pytest.mark.parametrize("p, exps", [(3, (2, 1)), (3, (3,)), (2, (3, 1)), (2, (3,)), (2, (4, 1))])
@pytest.mark.parametrize("sides", [(0,), (1,), (0, 1)])
def test_p_nil_walk_matches_the_filtered_enumeration(p, exps, sides):
    # the walk yields the unrestricted enumeration's p-nil rings: same names,
    # tensors and order, p-nil checked on the tables, not through the slot steps
    full = list(enumerate_rings(p, exps))
    for ring in full:
        assert ring.is_left_p_nil() == _p_nil_by_tables(ring, 0)
        assert ring.is_right_p_nil() == _p_nil_by_tables(ring, 1)
    want = [(r.name, r.tensor.tolist()) for r in full
            if all(_p_nil_by_tables(r, side) for side in sides)]
    got = [(r.name, r.tensor.tolist()) for r in enumerate_rings(p, exps, sides)]
    assert 1 < len(got) < len(full) and got == want


@pytest.mark.parametrize("p, exps, one_sided", [(3, (2, 1), 6), (2, (3, 1), 2)])
def test_right_walk_yields_the_opposites_of_the_left_walk(p, exps, one_sided):
    left = list(enumerate_rings(p, exps, (0,)))
    right = sorted(r.tensor.tolist() for r in enumerate_rings(p, exps, (1,)))
    opposites = [FiniteRing(p, exps, np.swapaxes(r.tensor, 0, 1)) for r in left]
    assert sorted(op.tensor.tolist() for op in opposites) == right
    for ring, op in zip(left, opposites):
        assert op.is_left_p_nil() == ring.is_right_p_nil()
        assert op.is_right_p_nil() == ring.is_left_p_nil()
    assert sum(not ring.is_right_p_nil() for ring in left) == one_sided


def test_p_nil_walk_passes_the_type_the_filter_could_not(monkeypatch):
    # building every associative tensor of (3, (2, 1, 1)) passes ENUM_BUDGET
    # (refused after about 15 s); walking only the p-nil slots stays inside a
    # thirty-second of it
    monkeypatch.setattr(rings, "ENUM_BUDGET", rings.ENUM_BUDGET // 32)
    counts = [sum(1 for _ in enumerate_rings(3, (2, 1, 1), s)) for s in ((0,), (1,), (0, 1))]
    assert counts == [315, 315, 27]


@pytest.mark.parametrize("exps", [(2, 1), ()])
def test_p_nil_walk_refuses_a_side_that_is_neither_left_nor_right(exps):
    with pytest.raises(InvalidArgumentError, match="side must be 0 .left. or 1 .right., got 2"):
        next(enumerate_rings(3, exps, (0, 2)))


def test_ideal_u_requires_hypothesis():
    with pytest.raises(HypothesisError):
        ideal_u(unital_ring(9))


def test_json_round_trip(tmp_path):
    ring = ring_3z27()
    path = tmp_path / "r.json"
    save_ring(ring, path)
    back = load_ring(path)
    assert back.tensor.tolist() == ring.tensor.tolist()
    assert back.exps == ring.exps and back.p == ring.p


def test_save_ring_writes_the_json_encoders_bytes(tmp_path):
    # save_ring fills a per-type template; its bytes must be the encoder's own,
    # the empty tensor and multi-digit coefficients included
    named = [builtin_ring(spec) for spec in ("trivial", "z8", "3z27", "zero:3:2.1.1")]
    wide = [FiniteRing(2, [4], [[[10]]]),
            FiniteRing(5, [2, 2], [[[11, 0], [0, 0]], [[0, 0], [0, 0]]])]
    path = tmp_path / "r.json"
    for ring in [*named, *wide, *enumerate_rings(3, (2, 1))]:
        save_ring(ring, path)
        text = json.dumps(ring_to_json(ring), sort_keys=True, indent=1) + "\n"
        assert path.read_bytes() == text.encode()


def test_json_rejects_malformed():
    with pytest.raises(InvalidStructureError, match="missing"):
        ring_from_json({"p": 3, "exps": [1]})
    with pytest.raises(InvalidStructureError, match=r"\(0,0\)"):
        ring_from_json({"p": 3, "exps": [1], "mul": [[[0, 0]]]})


@pytest.mark.parametrize("mul, match", [
    (5, "mul tensor must be a list"),
    ([7], "mul plane 0 must be a list"),
    ([["x"]], r"mul entry \(0,0\) must be a list"),
    ([[{"0": 1}]], r"mul entry \(0,0\) must be a list"),
    ([[["a"]]], r"coefficient \(0,0,0\) must be an integer"),
    ([[[None]]], r"coefficient \(0,0,0\) must be an integer"),
    ([[[1.5]]], r"coefficient \(0,0,0\) must be an integer"),
    ([[[True]]], r"coefficient \(0,0,0\) must be an integer"),
], ids=["mul-int", "plane-int", "entry-str", "entry-dict", "coeff-str", "coeff-null",
        "coeff-fraction", "coeff-bool"])
def test_json_rejects_malformed_mul(mul, match):
    with pytest.raises(InvalidStructureError, match=match):
        ring_from_json({"p": 2, "exps": [1], "mul": mul})


@pytest.mark.parametrize("obj", [
    {"p": 2.5, "exps": [1], "mul": [[[0]]]},
    {"p": True, "exps": [1], "mul": [[[0]]]},
    {"p": 2, "exps": "1", "mul": [[[0]]]},
    {"p": 2, "exps": [1.5], "mul": [[[0]]]},
    [2, [1], [[[0]]]],
], ids=["p-fraction", "p-bool", "exps-str", "exps-fraction", "not-object"])
def test_json_rejects_malformed_header(obj):
    with pytest.raises(InvalidStructureError):
        ring_from_json(obj)


def test_json_accepts_integral_floats():
    ring = ring_from_json({"p": 3.0, "exps": [2.0], "mul": [[[3.0]]]})
    assert (ring.p, ring.exps, ring.tensor.tolist()) == (3, (2,), [[[3]]])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_circle_monoid_laws_3z27(a, b, c):
    ring = ring_3z27()
    x, y, z = (a,), (b,), (c,)
    def o(u, v):
        return oracle.circle(ring, u, v)

    assert o(o(x, y), z) == o(x, o(y, z))
    assert o(x, oracle.zero(ring)) == x == o(oracle.zero(ring), x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(1, 6))
def test_adjoint_power_binomial_3z27(a, k):
    # oracle: x^(k) = sum over i >= 1 of C(k, i) x^i
    ring = ring_3z27()
    x = (a,)
    acc, power = oracle.zero(ring), x
    for i in range(1, k + 1):
        scaled = oracle.reduce(ring, tuple(math.comb(k, i) * c for c in power))
        acc = oracle.add(ring, acc, scaled)  # power = x^i
        power = oracle.mul(ring, power, x)
    assert circle_power(ring, x, k) == acc


def test_additive_closure():
    r = zero_ring(2, [2, 1])
    sub = additive_closure(r, oracle.mask(r, [(2, 0)]))
    assert oracle.members(r, sub) == {(0, 0), (2, 0)}
    assert oracle.members(r, additive_closure(r, oracle.mask(r, [(1, 0)]))) == {
        (0, 0), (1, 0), (2, 0), (3, 0)}


# -- properties of random well-defined tensors ----------------------------------------


def _compositions(total):
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first, *rest)


# every additive type with |R| <= 27 for p in {2, 3}, the trivial one included
SMALL_TYPES = [(p, exps) for p, top in ((2, 4), (3, 3))
               for n in range(top + 1) for exps in _compositions(n)]


@st.composite
def small_tensors(draw):
    """(p, exps, tensor): a well-defined tensor whose slots are zero about half
    the time, so both associative and non-associative ones are drawn."""
    p, exps = draw(st.sampled_from(SMALL_TYPES))
    r = range(len(exps))

    def slot(i, j, k):
        step = p ** max(0, exps[k] - min(exps[i], exps[j]))
        return draw(st.just(0) | st.integers(0, p ** exps[k] // step - 1)) * step

    return p, exps, [[[slot(i, j, k) for k in r] for j in r] for i in r]


@st.composite
def small_rings(draw):
    p, exps, tensor = draw(small_tensors())
    assume(_associative_on_basis(p, exps, tensor))
    return FiniteRing(p, exps, tensor)


@settings(max_examples=100, deadline=None)
@given(small_tensors())
def test_property_construction_accepts_exactly_the_associative(case):
    p, exps, tensor = case
    assert _constructs(p, exps, tensor) == _associative_on_basis(p, exps, tensor)


@settings(max_examples=60, deadline=None)
@given(small_rings())
# right but not left p-nil: e1 e0 = 3 e0 with e0 of order 9, e1 of order 3
@example(FiniteRing(3, (2, 1), [[[0, 0], [0, 0]], [[3, 0], [0, 0]]]))
def test_property_p_nil_matches_element_definition(ring):
    k = 4 if ring.p == 2 else ring.p
    zero, elems = oracle.zero(ring), oracle.elements(ring)
    small = [x for x in elems if oracle.reduce(ring, tuple(k * c for c in x)) == zero]
    assert ring.is_left_p_nil() == all(oracle.mul(ring, x, y) == zero
                                       for x in small for y in elems)
    assert ring.is_right_p_nil() == all(oracle.mul(ring, y, x) == zero
                                        for x in small for y in elems)


@settings(max_examples=60, deadline=None)
@given(small_rings())
def test_property_adjoint_order_counts_circle_units(ring):
    zero, elems = oracle.zero(ring), oracle.elements(ring)
    units = [x for x in elems
             if any(oracle.circle(ring, x, y) == zero == oracle.circle(ring, y, x) for y in elems)]
    assert adjoint_group(ring).order == len(units)


@settings(max_examples=60, deadline=None)
@given(small_rings())
def test_property_omega_circle_set_matches_circle_powers(ring):
    zero = oracle.zero(ring)
    for n in range(ring.additive_exponent_log() + 2):
        circle, additive = set(), set()
        for x in oracle.elements(ring):
            acc = zero
            for _ in range(ring.p ** n):
                acc = oracle.circle(ring, acc, x)
            if acc == zero:
                circle.add(x)
            if oracle.reduce(ring, tuple(ring.p ** n * c for c in x)) == zero:
                additive.add(x)
        assert oracle.members(ring, omega_circle_set(ring, n)) == circle
        assert oracle.members(ring, omega_additive(ring, n)) == additive


def test_enumeration_takes_its_blocks_from_groups(monkeypatch):
    """Patching groups.CHUNK_ENTRIES alone keeps every associativity batch of
    (3, (1, 1)) within 64 tensors of 2^4 entries, with the same rings."""
    want = [(r.name, r.tensor.tolist()) for r in enumerate_rings(3, (1, 1))]
    batches = []
    real = rings._associative_mask
    monkeypatch.setattr(rings, "_associative_mask",
                        lambda arr, moduli, triples: batches.append(len(arr)) or real(arr, moduli, triples))
    monkeypatch.setattr(groups, "CHUNK_ENTRIES", 64 * 2**4)
    assert [(r.name, r.tensor.tolist()) for r in enumerate_rings(3, (1, 1))] == want
    assert 1 < max(batches) <= 64
