"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematically valid domain."""


class NonPositiveEnergy(DomainError):
    """The retained eigenvalue branch evaluated to a non-positive energy."""


class NotReached(RuntimeError):
    """A scan hit its iteration cap before satisfying its threshold."""


class NonConvergence(RuntimeError):
    """The integrator exhausted its refinements without meeting tolerance."""
