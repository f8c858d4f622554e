"""Exception hierarchy for the engine.

Every domain failure derives from VflieError so the CLI can map it to a
structured error report and exit code 1 (ParseError maps to exit code 2).
"""

from __future__ import annotations


class VflieError(Exception):
    """Base class for all engine errors."""

    @property
    def code(self) -> str:
        return type(self).__name__

    def to_dict(self) -> dict:
        """The structured error report the CLI writes to stderr."""
        return {"error": self.code, "message": str(self)}


class ContextMismatch(VflieError):
    """Operands belong to different variable contexts."""


class SubstitutionOutsideRing(VflieError):
    """A substitution would leave the coefficient ring.

    Raised when a replacement feeding an exponential argument is not a
    homogeneous Q-linear polynomial (an additive constant c would introduce
    the irrational factor exp(c)).
    """


class InvalidCoordinateChange(VflieError):
    """Forward/inverse maps are not polynomial or do not compose to identity."""


class ParseError(VflieError):
    """Input text does not conform to the expression grammar."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "position": self.position}


class NotInSpan(VflieError):
    """A vector is outside the span of the given basis."""


class ClosureCapExceeded(VflieError):
    """Bracket closure hit the dimension, round, or degree cap.

    Carries the `cap` that fired ("cap_dim", "cap_rounds" or "cap_degree"),
    its `limit`, the `dim` and bracket `round` (generator layer) reached and
    the number of that layer's generator x frontier pairs not yet visited
    (`pending`); a pair that close() skips because the fields' supports
    prove it commuting counts as visited.  A cap bounds the work; it does
    not prove the closure infinite-dimensional, and a higher cap may let it
    close.  Never a silent truncation.
    """

    FLAGS = {"cap_dim": "--cap-dim", "cap_rounds": "--cap-rounds", "cap_degree": "--degree-cap"}

    def __init__(self, cap: str, limit: int, dim: int, round: int, pending: int, detail: str = ""):
        self.cap, self.limit, self.dim, self.round, self.pending = cap, limit, dim, round, pending
        super().__init__(
            f"closure exceeded {cap}={limit}{detail}: dimension {dim} reached in bracket "
            f"round {round}, {pending} pairs pending; raise {self.FLAGS[cap]} to continue"
        )

    def to_dict(self) -> dict:
        return {**super().to_dict(), "cap": self.cap, "limit": self.limit,
                "dim": self.dim, "round": self.round, "pending": self.pending}


class ProjectionHypothesisViolated(VflieError):
    """Some component of a basis element depends on a dropped variable."""


class NotAnIdeal(VflieError):
    """The given subspace is not invariant under brackets with the algebra."""


class IdealNotAbelian(VflieError):
    """The split check requires an abelian ideal (the system is linear only then)."""


class NotNilpotent(VflieError):
    """The operation is defined for nilpotent algebras only."""


class NotNilpotentOperator(VflieError):
    """The restricted adjoint operator is not nilpotent."""


class NotInvariant(VflieError):
    """The subspace is not invariant under the given operator."""


class InvalidSpec(VflieError):
    """Recipe parameters violate the recipe's constraints."""


class InternalInvariantViolation(VflieError):
    """An internal consistency check failed; indicates a bug, not bad input."""
