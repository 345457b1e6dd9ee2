"""Circle-group construction pinned against hand-computed instances.

The 3Z/27Z anchors come from integer arithmetic: x o y = x + y + xy mod 27
on multiples of 3, and x has circle-cube 3x + 3x^2 + x^3.
"""

import numpy as np

from adjrings.adjoint import adjoint_group, omega_circle_set
from adjrings.groups import min_generators, nilpotency_class
from adjrings.rings import multiples_ring, omega_additive, unital_ring, zero_ring

import oracle


def test_3z27_adjoint_is_cyclic9():
    ring = multiples_ring(3, 27)
    adj = adjoint_group(ring)
    assert adj.order == 9
    assert adj.group.exponent() == 9
    assert min_generators(adj.group) == 1
    assert nilpotency_class(adj.group) == 1


def test_3z27_omega_matches_additive():
    ring = multiples_ring(3, 27)
    # integers 0, 9, 18 are the multiples of 3 with circle-cube zero mod 27
    expected = {oracle.zero(ring), (3,), (6,)}
    assert oracle.members(ring, omega_circle_set(ring, 1)) == expected
    assert oracle.members(ring, omega_additive(ring, 1)) == expected


def test_4z16_zero_multiplication():
    ring = multiples_ring(4, 16)
    adj = adjoint_group(ring)
    assert (adj.group.table == ring.tables.add).all()
    assert adj.group.exponent() == 4


def test_zero_ring_adjoint_equals_additive():
    ring = zero_ring(2, [2, 1])
    adj = adjoint_group(ring)
    assert (adj.group.table == ring.tables.add).all()


def test_unital_z4():
    ring = unital_ring(4)
    adj = adjoint_group(ring)
    assert [oracle.element(ring, int(i)) for i in adj.member_idx] == [(0,), (2,)]
    assert adj.position.tolist() == [0, -1, 1, -1]
    assert adj.group.exponent() == 2


def test_unital_z3_adjoint_is_not_3group():
    # the circle group of a 3-ring need not be a 3-group
    ring = unital_ring(3)
    adj = adjoint_group(ring)
    assert adj.order == 2
    assert adj.group.exponent() == 2


def test_unital_z9_adjoint_c6():
    ring = unital_ring(9)
    adj = adjoint_group(ring)
    assert adj.order == 6
    assert adj.group.exponent() == 6


def test_omega_circle_vs_group_orders():
    ring = multiples_ring(3, 81)
    adj = adjoint_group(ring)
    for n in (1, 2, 3):
        by_series = omega_circle_set(ring, n)
        by_orders = np.zeros(ring.order, dtype=bool)
        by_orders[adj.member_idx[3 ** n % adj.group.element_orders == 0]] = True
        assert np.array_equal(by_series, by_orders)


def test_adjoint_group_member_zero_first():
    ring = multiples_ring(2, 8)
    adj = adjoint_group(ring)
    assert adj.member_idx[0] == oracle.index(ring, oracle.zero(ring))
    assert adj.group.identity == 0
