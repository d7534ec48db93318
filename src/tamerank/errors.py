"""Typed failure modes shared across the package."""


class TameRankError(Exception):
    """Base class for package-specific errors."""


class ConfigError(TameRankError):
    """Invalid job configuration; carries every violated constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class PrecisionError(TameRankError):
    """A computation reached its fixed bound: lambda, read once per level, is
    p^(MAX_LEVEL - 1) or more, or B_{1,chi} vanishes to its working precision."""


class LambdaUnavailableError(TameRankError):
    """No configured provider can supply lambda for the named character."""

    def __init__(self, label):
        self.character = label
        super().__init__(f"lambda unavailable for character {label}")


class OracleInconsistencyError(TameRankError):
    """The brute-force module grew in a way the theory forbids (a bug)."""


class InvariantViolationError(TameRankError):
    """An always-true internal invariant failed (a bug, not a user error)."""
