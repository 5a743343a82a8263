"""Exception types shared across the package."""

from __future__ import annotations


class WignerAsymError(Exception):
    """Base class for all package-specific errors."""


class DegenerateTriangle(WignerAsymError):
    """Triangle inequality violated beyond tolerance, or a flat triangle
    where a strict interior angle is required."""


class DegenerateVertex(WignerAsymError):
    """A dihedral angle is undefined: a face at its edge has zero area, or
    an angle of the glued-triangle vertex figure has a vanishing sine."""


class NotClassicallyAllowed(WignerAsymError):
    """The Cayley-Menger determinant is negative (or zero where a volume
    must be positive): no Euclidean tetrahedron has these edges.

    Carries the determinant value in ``determinant``.
    """

    def __init__(self, message: str, determinant: float):
        super().__init__(message)
        self.determinant = determinant


class InvalidProjection(WignerAsymError):
    """A projection quantum number is out of range or has the wrong parity."""


class HypothesisViolation(WignerAsymError):
    """The small/large-spin marking violates the applicability conditions.

    ``violations`` holds the structured report from ``validate_hypotheses``.
    """

    def __init__(self, message: str, violations=None):
        super().__init__(message)
        self.violations = violations or []

    def __str__(self):
        """The message, then each violation's code and message."""
        return "; ".join([super().__str__(), *(f"{v.code}: {v.message}" for v in self.violations)])


class CaseAngleOutOfRange(WignerAsymError):
    """A combined dihedral angle for a closed-form 15j case left [0, pi].

    The near-regular assumption behind the closed 15j formulas failed;
    callers should fall back to the general mixed-spin formula.
    """


class ConfigError(WignerAsymError):
    """Invalid sweep configuration. ``problems`` maps field -> message."""

    def __init__(self, problems: dict):
        super().__init__("; ".join(f"{k}: {v}" for k, v in sorted(problems.items())))
        self.problems = problems


class InternalConsistencyError(WignerAsymError):
    """An invariant the engine relies on failed (e.g. a phase exponent that
    must be an integer is not). Indicates a bug or an invalid symbol that
    slipped past validation."""
