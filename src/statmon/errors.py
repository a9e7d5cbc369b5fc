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
    """`value` as a float. Booleans, text, complex numbers, arrays, integers past
    float range and whatever else float() refuses are a ValidationError."""
    complex_dtype = getattr(getattr(value, "dtype", None), "kind", None) == "c"
    if not (holds_boolean(value) or isinstance(value, (str, bytes)) or complex_dtype or getattr(value, "ndim", 0)):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            return float(value)
    raise ValidationError(f"{what} must be a number, got {value!r}")


def as_instance(value, cls, what: str):
    """`value` when it is a `cls`; anything else is a ValidationError."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, got {value!r:.80}")
    return value


def as_items(value, cls, what: str) -> list:
    """`value`'s items as a list, if it is an iterable of `cls` instances; anything else is a ValidationError."""
    try:
        items = list(value)
    except TypeError:
        items = None
    if items is None or not all(isinstance(item, cls) for item in items):
        raise ValidationError(f"{what} must be an iterable of {cls.__name__}, got {value!r:.80}")
    return items


def as_array(value, what: str, dtype=float, ndim: int = 1, finite: bool = True, error=ValidationError):
    """`value` as a new float64 array (complex128 for dtype=complex) of `ndim` axes. Refused
    with `error`: booleans, text, ragged input, objects that are not numbers, integers past
    float range, complex input to a real array, other axis counts and, if `finite`, NaN and inf."""
    import numpy as np  # here, not at the top: the numpy-free commands import errors

    try:
        # numpy's own dtype first: a cast would read true as 1, parse text and drop imaginary parts
        arr = None if holds_boolean(value) or isinstance(value, (str, bytes)) else np.asarray(value)
        if arr is None or arr.dtype.kind not in ("iufO" if dtype is float else "iufcO"):
            raise TypeError
        arr = arr.astype(dtype)  # objects: ints past int64 convert; past float range, and non-numbers, raise
    except (TypeError, ValueError, OverflowError):
        kind = "real numbers" if dtype is float else "numbers"
        raise error(f"{what} must be {kind}, got {value!r:.80}") from None
    if arr.ndim != ndim:
        raise error(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise error(f"{what} must be finite, got {value!r:.80}")
    return arr
