"""Shared exception types."""


class GuardRangeError(ValueError):
    """An exhaustive operation was asked to run outside its guarded range.

    The brute-force oracles scan exponentially many words, so each one caps
    `n` at a desk-scale default.  Callers that really want a larger run can
    pass ``force=True`` to the operation in question.
    """


class InvariantError(RuntimeError):
    """An internal invariant failed: the library is wrong, not its input.

    Raised in place of ``assert`` so the check survives ``python -O``.  It
    is deliberately not a ``ValueError``, which the CLI reports as bad input.
    """


def check_guard(name, n, lo, hi, force=False):
    if not force and not lo <= n <= hi:
        raise GuardRangeError(
            f"{name} is guarded to {lo} <= n <= {hi} (got n={n}); "
            f"pass force=True to override"
        )
