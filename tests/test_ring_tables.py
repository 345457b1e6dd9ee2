"""Index tables of FiniteRing against the per-element reference arithmetic.

The adjoint group, the circle torsion layers and the structure-constant form
of a table ring are all read off the `add`/`mul` index tables.  These tests
pin the tables to `FiniteRing.add`/`mul`, pin the adjoint construction to the
element-by-element double loop it replaced, and check that the vectorized
assertions still fire on tampered tables.
"""

import numpy as np
import pytest

from adjrings import morphisms
from adjrings.adjoint import adjoint_group, omega_circle_set
from adjrings.errors import InvalidStructureError
from adjrings.groups import builtin_group, center
from adjrings.morphisms import TableRing, der_ring, to_finite_ring
from adjrings.rings import enumerate_rings, multiples_ring, unital_ring, zero_ring


def _der_c4xc2():
    G = builtin_group("c4xc2")
    ring, _ = to_finite_ring(der_ring(G, center(G)))
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
    """The element-by-element construction: (members, Cayley table)."""
    elems = list(ring.elements())
    circle = np.zeros((ring.order, ring.order), dtype=np.int32)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            circle[i, j] = ring.index(ring.circle(x, y))
    zero_idx = ring.index(ring.zero())
    left = set(np.flatnonzero((circle == zero_idx).any(axis=1)))
    right = set(np.flatnonzero((circle == zero_idx).any(axis=0)))
    member_idx = sorted(left & right)
    pos = {ri: gi for gi, ri in enumerate(member_idx)}
    sub = circle[np.ix_(member_idx, member_idx)]
    table = np.array([[pos[int(v)] for v in row] for row in sub])
    return [ring.element(i) for i in member_idx], table


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_tables_match_reference_arithmetic(ring):
    t = ring.tables
    elems = list(ring.elements())
    assert [tuple(c) for c in t.coords.tolist()] == elems
    for i, x in enumerate(elems):
        assert t.neg[i] == ring.index(ring.smul(-1, x))
        for j, y in enumerate(elems):
            assert t.add[i, j] == ring.index(ring.add(x, y))
            assert t.mul[i, j] == ring.index(ring.mul(x, y))
    assert not (t.add.flags.writeable or t.mul.flags.writeable)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_adjoint_group_matches_double_loop(ring):
    members, table = _old_adjoint(ring)
    adj = adjoint_group(ring)
    assert adj.members == members
    assert (adj.group.table == table).all()


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_omega_circle_set_matches_iterated_circle(ring):
    for n in range(1, ring.additive_exponent_log() + 1):
        q = ring.p ** n
        expected = []
        for x in ring.elements():
            acc = ring.zero()
            for _ in range(q):
                acc = ring.circle(acc, x)
            if acc == ring.zero():
                expected.append(x)
        assert omega_circle_set(ring, n) == tuple(expected)


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


def test_corrupted_witness_map_fires(monkeypatch):
    # F_2 + (zero ring Z_2); element 2a + b is (a, b), (a, b)(c, d) = (ac, 0)
    add = [[i ^ j for j in range(4)] for i in range(4)]
    mul = [[2 * ((i >> 1) & (j >> 1)) for j in range(4)] for i in range(4)]
    T = TableRing(add, mul, 0, name="f2+z2")
    ring, embed = to_finite_ring(T)
    assert ring.order == 4 and len(set(embed)) == 4
    real = morphisms.table_decomposition

    def swapped(table, identity):
        # an additive automorphism that moves the idempotent off its own square
        factors, basis, coords = real(table, identity)
        return factors, basis, {k: tuple(reversed(v)) for k, v in coords.items()}

    monkeypatch.setattr(morphisms, "table_decomposition", swapped)
    with pytest.raises(InvalidStructureError, match="witness map breaks multiplication"):
        to_finite_ring(T)
