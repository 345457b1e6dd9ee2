"""Exception types shared across the package."""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class InvalidElementError(AlgebraError):
    """An element does not belong to the structure it was used with."""


class InvalidStructureError(AlgebraError):
    """A table or tensor fails the defining axioms of its structure."""


class InvalidArgumentError(AlgebraError):
    """An argument violates a precondition (non-ideal, non-normal, ...)."""


class HypothesisError(AlgebraError):
    """The input does not satisfy the hypothesis a construction requires."""


class BudgetError(AlgebraError):
    """An enumeration or search would exceed its budget."""


class BoundError(AlgebraError):
    """A computation would exceed a configured size bound."""
