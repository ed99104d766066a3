"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes or index sets are incompatible with the requested operation."""


class ResourceLimitError(RuntimeError):
    """An exact sweep would exceed a hard size cap; refusing rather than subsampling."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a defect in the program, never a property of the input.

    Raised explicitly rather than by ``assert``, so the check survives ``python -O``.
    """
