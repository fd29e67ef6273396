"""Shared exception types and the integer checks at the API edges."""


class GuardRangeError(ValueError):
    """An operation was asked to run above its guarded range.

    Each exhaustive operation caps `n` at a desk-scale default, which a
    library caller can lift with ``force=True``.  The CLI's ``sample`` caps
    the word entries it holds at once at 10^6, with no override.
    """


class InvariantError(RuntimeError):
    """An internal invariant failed: the library is wrong, not its input.

    Raised in place of ``assert`` so the check survives ``python -O``.  It
    is deliberately not a ``ValueError``, which the CLI reports as bad input.
    """


def is_int(value):
    """Whether value is an int; a bool, although an int subclass, is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(value, lo, name, too_small):
    """Reject a non-int or bool value as ``name``, and one below lo with ``too_small``."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(too_small)


def check_guard(name, n, lo, hi, force=False):
    """Reject n below the operation's domain, and n above its guard unless forced.

    An n below ``lo``, or an n that is not an int (a bool included), is bad
    input whatever ``force`` is, so it raises a plain ``ValueError``:
    forcing cannot make the operation meaningful.  So does a ``force`` that
    is not a bool, which would otherwise force the run by being truthy.
    """
    if not is_int(n):
        raise ValueError(f"{name} needs an integer n (got n={n!r})")
    if not isinstance(force, bool):
        raise ValueError(f"{name} needs a bool force (got force={force!r})")
    if n < lo:
        raise ValueError(f"{name} needs n >= {lo} (got n={n})")
    if not force and n > hi:
        raise GuardRangeError(f"{name} is guarded to n <= {hi} (got n={n})")
