"""Finite p-rings, their adjoint groups, and small finite p-groups.

Rings are given by structure constants on a direct sum of cyclic p-groups,
groups by Cayley tables.  The `verify` module packages the structural facts
relating the two sides (torsion-layer correspondence, nilpotency and rank
bounds, central automorphism groups, generator bounds) as checks that emit
JSON-serializable reports; the `adjrings` console script batches them over a
corpus.
"""

from .adjoint import AdjointGroup, adjoint_group, omega_circle_set
from .errors import (
    AlgebraError,
    BoundError,
    BudgetError,
    HypothesisError,
    InvalidArgumentError,
    InvalidElementError,
    InvalidStructureError,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    agemo,
    builtin_group,
    center,
    cyclic_group,
    enumerate_subgroups,
    frattini,
    load_group,
    nilpotency_class,
    omega_subgroup,
    quotient_group,
    rank,
)
from .morphisms import (
    aut_group,
    aut_n,
    check_laue,
    der_ring,
    hom_ring,
)
from .report import CheckReport
from .rings import (
    FiniteRing,
    enumerate_rings,
    load_ring,
    multiples_ring,
    quotient_ring,
    save_ring,
    to_finite_ring,
    unital_ring,
    zero_ring,
)
from .verify import GroupProfile, RingProfile, group_profile, ring_profile

__version__ = "0.1.0"

__all__ = [
    "AdjointGroup",
    "AlgebraError",
    "BoundError",
    "BudgetError",
    "CheckReport",
    "FiniteGroup",
    "FiniteRing",
    "GroupProfile",
    "HypothesisError",
    "InvalidArgumentError",
    "InvalidElementError",
    "InvalidStructureError",
    "RingProfile",
    "Subgroup",
    "adjoint_group",
    "agemo",
    "aut_group",
    "aut_n",
    "builtin_group",
    "center",
    "check_laue",
    "cyclic_group",
    "der_ring",
    "enumerate_rings",
    "enumerate_subgroups",
    "frattini",
    "group_profile",
    "hom_ring",
    "load_group",
    "load_ring",
    "multiples_ring",
    "nilpotency_class",
    "omega_circle_set",
    "omega_subgroup",
    "quotient_group",
    "quotient_ring",
    "rank",
    "ring_profile",
    "save_ring",
    "to_finite_ring",
    "unital_ring",
    "zero_ring",
]
