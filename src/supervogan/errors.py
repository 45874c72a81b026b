"""Error taxonomy shared across the package."""

from __future__ import annotations


class SupervoganError(Exception):
    """Base class for all errors raised by this package."""


class InvalidFamily(SupervoganError):
    """Family parameters violate the family's constraints."""


class SingularNormalization(SupervoganError):
    """An isotropic Cartan row is identically zero; the diagram is malformed."""


class SingularBlock(SupervoganError):
    """An even block's Gram matrix is not invertible."""


class NotAnEvenRoot(SupervoganError):
    """Compactness parity is undefined: the vector is an odd root (or no root)."""


class FlipAtUnpainted(SupervoganError):
    """Flip requested at a node that is not painted."""


class FlipAtOddNode(SupervoganError):
    """Flip requested at an odd node; flips act on even nodes only."""


class FamilyMismatch(SupervoganError):
    """Two diagrams from different families were compared."""


class InvariantViolation(SupervoganError):
    """A library invariant failed: the diagram data or the code is inconsistent."""


class BadIndex(SupervoganError):
    """Node index out of range, or a painting/flip aimed at an ineligible node."""


class ParseError(SupervoganError):
    """Malformed family spec; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


class RankGuardExceeded(SupervoganError):
    """The requested family is larger than the interactive rank guard allows."""
