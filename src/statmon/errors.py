"""Exception hierarchy shared across the package, and the argument checks that raise it."""

import contextlib
import operator


class StatmonError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(StatmonError, ValueError):
    """Invalid user input: malformed words, out-of-range values, bad flags."""


class CapacityError(ValidationError):
    """A request over a size gate, refused before allocating: the box count,
    the orbit-space dimension k of a constrained solve (at most 720), or a
    mesh, grid, sample or byte budget."""


class ContractError(StatmonError, ValueError):
    """A caller violated a function contract (e.g. non-Hermitian operator)."""


class InfeasibleError(StatmonError):
    """Mathematically valid input with no solution (empty joint eigenspace,
    fixed edges that violate the monogamy region)."""


class ConvergenceError(StatmonError, RuntimeError):
    """Internal numerical failure; indicates a bug, not bad input."""


def as_count(value, what: str) -> int:
    """`value` as an int when it is an integer (Python or numpy); floats,
    bools and other non-integers are refused rather than truncated."""
    if isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def as_seed(value) -> int:
    """A non-negative integer RNG seed; anything else is a ValidationError
    rather than numpy's bare TypeError or ValueError."""
    seed = as_count(value, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return seed


def holds_boolean(value) -> bool:
    """Whether `value` is a boolean (bool, or numpy's by dtype kind, so numpy need
    not be imported) or a list or tuple holding one: float() reads true as 1."""
    if isinstance(value, (list, tuple)):
        return any(map(holds_boolean, value))
    return isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", None) == "b"


def as_real(value, what: str) -> float:
    """`value` as a float; booleans and what float() refuses are a ValidationError."""
    if not holds_boolean(value):
        with contextlib.suppress(TypeError, ValueError):
            return float(value)
    raise ValidationError(f"{what} must be a number, got {value!r}")
