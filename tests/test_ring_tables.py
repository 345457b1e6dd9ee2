"""Index tables of FiniteRing against the per-element reference arithmetic.

The adjoint group, the circle torsion layers and the structure-constant form
of a table ring are all read off the `add`/`mul` index tables.  These tests
pin the tables to the per-element arithmetic of `oracle.py`, pin the adjoint
construction to the element-by-element double loop it replaced, and check
that the vectorized assertions still fire on tampered tables.  `to_finite_ring`, the table
constructor of FiniteRing, must refuse every table that breaks a ring law.
`table_decomposition`, which gives it coordinates, must not depend on where
the table puts its elements.
"""

import itertools

import numpy as np
import pytest

from adjrings import rings
from adjrings.abelian import table_decomposition
from adjrings.adjoint import adjoint_group, omega_circle_set
from adjrings.cli import DEFAULT_GROUP_NAMES
from adjrings.errors import InvalidStructureError
from adjrings.groups import builtin_group, center
from adjrings.morphisms import der_ring
from adjrings.rings import (
    enumerate_rings,
    multiples_ring,
    to_finite_ring,
    unital_ring,
    zero_ring,
)

import oracle


def _der_c4xc2():
    G = builtin_group("c4xc2")
    ring, _ = der_ring(G, center(G))
    return ring


def _rings():
    out = []
    for p, exps in ((2, (2,)), (2, (1, 1)), (3, (1, 1))):
        out.extend(enumerate_rings(p, exps))
    for a, n in ((2, 8), (2, 16), (3, 27), (3, 81), (5, 125)):
        out.append(multiples_ring(a, n))
    out.extend(unital_ring(n) for n in (4, 8, 9, 25))
    out.extend([zero_ring(2, []), zero_ring(2, [2, 1]), _der_c4xc2()])
    return out


RINGS = _rings()


def _old_adjoint(ring):
    """The element-by-element construction: (member indices, Cayley table)."""
    elems = oracle.elements(ring)
    circle = np.zeros((ring.order, ring.order), dtype=np.int32)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            circle[i, j] = oracle.index(ring, oracle.circle(ring, x, y))
    zero_idx = oracle.index(ring, oracle.zero(ring))
    left = set(np.flatnonzero((circle == zero_idx).any(axis=1)))
    right = set(np.flatnonzero((circle == zero_idx).any(axis=0)))
    member_idx = sorted(left & right)
    pos = {ri: gi for gi, ri in enumerate(member_idx)}
    sub = circle[np.ix_(member_idx, member_idx)]
    table = np.array([[pos[int(v)] for v in row] for row in sub])
    return member_idx, table


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_tables_match_reference_arithmetic(ring):
    t = ring.tables
    elems = oracle.elements(ring)
    assert [tuple(c) for c in t.coords.tolist()] == elems
    for i, x in enumerate(elems):
        assert t.neg[i] == oracle.index(ring, oracle.reduce(ring, tuple(-c for c in x)))
        for j, y in enumerate(elems):
            assert t.add[i, j] == oracle.index(ring, oracle.add(ring, x, y))
            assert t.mul[i, j] == oracle.index(ring, oracle.mul(ring, x, y))
    assert not (t.add.flags.writeable or t.mul.flags.writeable)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_adjoint_group_matches_double_loop(ring):
    members, table = _old_adjoint(ring)
    adj = adjoint_group(ring)
    assert adj.member_idx.tolist() == members
    assert [adj.position[i] for i in members] == list(range(len(members)))
    assert (adj.position >= 0).sum() == len(members)
    assert (adj.group.table == table).all()


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_omega_circle_set_matches_iterated_circle(ring):
    for n in range(1, ring.additive_exponent_log() + 1):
        q = ring.p ** n
        expected = set()
        for x in oracle.elements(ring):
            acc = oracle.zero(ring)
            for _ in range(q):
                acc = oracle.circle(ring, acc, x)
            if acc == oracle.zero(ring):
                expected.add(x)
        assert oracle.members(ring, omega_circle_set(ring, n)) == expected


def _tamper(monkeypatch, ring, entries):
    mul = ring.tables.mul.copy()
    for (i, j), v in entries.items():
        mul[i, j] = v
    monkeypatch.setattr(ring, "tables", ring.tables._replace(mul=mul))


def test_series_disagreement_fires(monkeypatch):
    # 2Z/16 on Z_8: k*g times l*g is 2kl*g; g^3 = 4g is only read by the series
    ring = multiples_ring(2, 16)
    _tamper(monkeypatch, ring, {(2, 1): 0})
    with pytest.raises(InvalidStructureError, match="series disagrees"):
        adjoint_group(ring)


def test_multiple_quasi_inverses_fire(monkeypatch):
    # zero ring on Z_2 x Z_2: forcing (0,1) o (1,0) = 0 gives (0,1) two inverses
    ring = zero_ring(2, [1, 1])
    _tamper(monkeypatch, ring, {(1, 2): 3, (2, 1): 3})
    with pytest.raises(InvalidStructureError, match="multiple quasi-inverses"):
        adjoint_group(ring)


def test_circle_leaving_invertible_set_fires(monkeypatch):
    # Z/8: the even residues are the circle group; 2 o 4 becomes odd
    ring = unital_ring(8)
    _tamper(monkeypatch, ring, {(2, 4): 1})
    with pytest.raises(InvalidStructureError, match="left the invertible set"):
        adjoint_group(ring)


# F_2 + (zero ring Z_2) on Z_2 x Z_2; element 2a + b is (a, b), (a, b)(c, d) = (ac, 0)
XOR4 = np.array([[i ^ j for j in range(4)] for i in range(4)])
F2_Z2 = np.array([[2 * ((i >> 1) & (j >> 1)) for j in range(4)] for i in range(4)])


def _broken_laws(add, mul):
    """Ring laws that the tables break, by brute force over all triples."""
    r = range(len(add))
    laws = {
        "commutative addition": all(add[x][y] == add[y][x] for x in r for y in r),
        "associative multiplication": all(
            mul[mul[x][y]][z] == mul[x][mul[y][z]] for x in r for y in r for z in r),
        "left distributivity": all(
            mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]] for x in r for y in r for z in r),
        "right distributivity": all(
            mul[add[x][y]][z] == add[mul[x][z]][mul[y][z]] for x in r for y in r for z in r),
    }
    return {law for law, holds in laws.items() if not holds}


TAMPERED = {
    # D8 is a group under this "addition", but not an abelian one
    "commutative addition": (builtin_group("d8").table, np.zeros((8, 8), dtype=int)),
    # bilinear (a, b)(c, d) = (ac + bd, ad): e2 e2 = e1 but (e2 e2) e2 = e2, e2 (e2 e2) = 0
    "associative multiplication": (XOR4, np.array([
        [2 * ((x >> 1 & y >> 1) ^ (x & y & 1)) + (x >> 1 & y & 1) for y in range(4)]
        for x in range(4)])),
    # x y = x when y != 0: additive in x, but x(1 + 2) = x differs from x + x = 0
    "left distributivity": (XOR4, np.array([[x if y else 0 for y in range(4)]
                                            for x in range(4)])),
    "right distributivity": (XOR4, np.array([[y if x else 0 for y in range(4)]
                                             for x in range(4)])),
}


@pytest.mark.parametrize("law", TAMPERED)
def test_to_finite_ring_rejects_broken_law(law):
    add, mul = TAMPERED[law]
    assert _broken_laws(add, mul) == {law}
    with pytest.raises(InvalidStructureError):
        to_finite_ring(add, mul, 0)


def test_to_finite_ring_rejects_wrong_zero():
    assert _broken_laws(XOR4, F2_Z2) == set()
    assert to_finite_ring(XOR4, F2_Z2, 0)[0].order == 4
    with pytest.raises(InvalidStructureError, match="not an additive zero"):
        to_finite_ring(XOR4, F2_Z2, 1)


def _patched_coords(monkeypatch, change):
    real = rings.table_decomposition

    def patched(table, identity):
        factors, basis, coords = real(table, identity)
        return factors, basis, change(coords)

    monkeypatch.setattr(rings, "table_decomposition", patched)


def test_non_bijective_witness_fires(monkeypatch):
    _patched_coords(monkeypatch, lambda c: {k: (v[0], 0) for k, v in c.items()})
    with pytest.raises(InvalidStructureError, match="not a bijection"):
        to_finite_ring(XOR4, F2_Z2, 0)


def test_witness_moving_zero_fires(monkeypatch):
    # zero ring: every basis product is coords[0], so the swap still builds a ring
    _patched_coords(monkeypatch, lambda c: {**c, 0: c[1], 1: c[0]})
    with pytest.raises(InvalidStructureError, match="moves zero"):
        to_finite_ring(XOR4, np.zeros((4, 4), dtype=int), 0)


def test_corrupted_witness_map_fires(monkeypatch):
    ring, at = to_finite_ring(XOR4, F2_Z2, 0, name="f2+z2")
    assert ring.order == 4 and len(set(at.tolist())) == 4
    # an additive automorphism that moves the idempotent off its own square
    _patched_coords(monkeypatch, lambda c: {k: tuple(reversed(v)) for k, v in c.items()})
    with pytest.raises(InvalidStructureError, match="witness map breaks multiplication"):
        to_finite_ring(XOR4, F2_Z2, 0)


ABELIAN_NAMES = [name for name in DEFAULT_GROUP_NAMES if builtin_group(name).is_abelian()]


def _name_invariants(name):
    """Invariant factors read off a name "c<a1>xc<a2>x...", descending."""
    factors = sorted((int(c[1:]) for c in name.split("x") if c != "c1"), reverse=True)
    assert all(a % b == 0 for a, b in zip(factors, factors[1:])), name
    return factors


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ABELIAN_NAMES)
def test_table_decomposition_of_relabelled_table(name, seed):
    G = builtin_group(name)
    n = G.n
    perm = np.random.default_rng(seed).permutation(n)
    if n > 1 and perm[G.identity] == 0:
        perm = (perm + 1) % n  # move the identity off index 0
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    factors, basis, coords = table_decomposition(table.tolist(), int(perm[G.identity]))
    assert factors == _name_invariants(name)
    # coords is a bijection onto Z_f1 x ... x Z_fr carrying the table to coordinate addition
    assert sorted(coords) == list(range(n))
    at = np.array([coords[x] for x in range(n)], dtype=np.int64).reshape(n, len(factors))
    assert set(map(tuple, at.tolist())) == set(itertools.product(*map(range, factors)))
    assert ((at[:, None] + at) % np.array(factors, dtype=np.int64) == at[table]).all()
    assert [list(coords[b]) for b in basis] == np.eye(len(factors), dtype=int).tolist()
