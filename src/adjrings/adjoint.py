"""The circle-operation group attached to a finite ring.

Under x o y = x + y + xy the ring is a monoid with neutral element 0; the
invertible elements of that monoid form a group.  For nilpotent rings the
group is the whole ring, which is asserted rather than assumed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStructureError
from .groups import FiniteGroup
from .rings import FiniteRing, nilpotency_class_ring


class AdjointGroup:
    """Circle group of a ring: a FiniteGroup plus the element dictionary.

    `members[i]` is the ring element at group index i; the zero element is
    always group index 0 (the neutral element of the circle operation).
    """

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        t = ring.tables
        circle = t.add[t.add, t.mul]
        hits = circle == 0
        member_idx = np.flatnonzero(hits.any(axis=1) & hits.any(axis=0))
        if member_idx[0] != 0:
            raise InvalidStructureError("zero must be the first group member")
        if (t.quasi_inverses(member_idx, (hits & hits.T)[member_idx]) < 0).any():
            raise InvalidStructureError("one-sided circle inverse detected")
        pos = np.full(ring.order, -1)
        pos[member_idx] = np.arange(len(member_idx))
        table = pos[circle[np.ix_(member_idx, member_idx)]]
        if (table < 0).any():
            raise InvalidStructureError("circle product left the invertible set")
        self.members = list(ring.elements_at(member_idx))
        self.index_of = {m: gi for gi, m in enumerate(self.members)}
        self.group = FiniteGroup(table, identity=0, name=f"adj({ring.name})")
        if nilpotency_class_ring(ring) is not None and len(self.members) != ring.order:
            raise InvalidStructureError("nilpotent ring must be entirely quasi-invertible")

    @property
    def order(self) -> int:
        return len(self.members)


def adjoint_group(ring: FiniteRing) -> AdjointGroup:
    """The circle group, built once per ring and kept in `ring._cache`."""
    if "adjoint" not in ring._cache:
        ring._cache["adjoint"] = AdjointGroup(ring)
    return ring._cache["adjoint"]


def omega_circle_set(ring: FiniteRing, n: int) -> tuple:
    """Ring elements whose circle order divides p^n, as a sorted tuple.

    Computed directly from iterated circle powers, independently of the
    adjoint group construction, so the two can be cross-checked.
    """
    powers = ring.tables.circle_power(np.arange(ring.order), ring.p ** n)
    return ring.elements_at(powers == 0)
