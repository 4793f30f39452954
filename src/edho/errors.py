"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematically valid domain."""


class NonPositiveEnergy(DomainError):
    """The retained eigenvalue branch evaluated to a non-positive energy."""


class NotReached(RuntimeError):
    """A scan hit its iteration cap before satisfying its threshold."""


class NonConvergence(RuntimeError):
    """The integrator exhausted its refinements without meeting tolerance."""


def shown(value) -> str:
    """repr(value) for an error message, or only its type where repr fails
    on an integer past sys.get_int_max_str_digits, alone or inside."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
