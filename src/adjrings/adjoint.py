"""The circle-operation group attached to a finite ring.

Under x o y = x + y + xy the ring is a monoid with neutral element 0; the
invertible elements of that monoid form a group.  For nilpotent rings the
group is the whole ring, which is asserted rather than assumed.  Ring
elements are table indices and ring subsets are bool masks, as in rings.py;
two index arrays translate between ring and group indices.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStructureError
from .groups import FiniteGroup, memoized
from .rings import FiniteRing, nilpotency_class_ring


class AdjointGroup:
    """Circle group of a ring: a FiniteGroup plus two read-only index arrays.

    `member_idx[i]` is the ring index of group element i, and `position[x]`
    the group index of ring element x (-1 outside the group).  The zero
    element is always group index 0 (the neutral element of the circle
    operation).
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
        position = np.full(ring.order, -1)
        position[member_idx] = np.arange(len(member_idx))
        table = position[circle[np.ix_(member_idx, member_idx)]]
        if (table < 0).any():
            raise InvalidStructureError("circle product left the invertible set")
        member_idx.flags.writeable = position.flags.writeable = False
        self.member_idx, self.position = member_idx, position
        self.group = FiniteGroup(table, identity=0, name=f"adj({ring.name})")
        if nilpotency_class_ring(ring) is not None and len(member_idx) != ring.order:
            raise InvalidStructureError("nilpotent ring must be entirely quasi-invertible")

    @property
    def order(self) -> int:
        return len(self.member_idx)


@memoized
def adjoint_group(ring: FiniteRing) -> AdjointGroup:
    """The circle group, built once per ring and kept in its memo."""
    return AdjointGroup(ring)


def omega_circle_set(ring: FiniteRing, n: int) -> np.ndarray:
    """Mask of the ring elements whose circle order divides p^n.

    Computed directly from circle powers on the ring tables (square and
    multiply, which the verified ring's associativity allows), independently
    of the adjoint group construction, so the two can be cross-checked.
    """
    powers = ring.tables.circle_power(np.arange(ring.order), ring.p ** n)
    return powers == 0
