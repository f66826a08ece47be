"""Shared exception types."""


class SpecError(Exception):
    """A manifold description is invalid or degenerates at an evaluated point."""


class NotPositiveDefiniteError(SpecError):
    """Metric failed the positivity check at a point."""


class InternalError(Exception):
    """An invariant the package keeps by construction is broken: a fault of
    the package, not of the spec or the options."""
