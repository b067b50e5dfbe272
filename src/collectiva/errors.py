"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract: InputError -> 2,
CapacityError -> 3; everything that completes analysis exits 0.
It also holds the exactness helpers every module that checks identities uses:
FLOAT_TOL, is_exact and values_equal.
"""

import os

FLOAT_TOL = 1e-12


def is_exact(*values) -> bool:
    """True when no float is involved, i.e. comparisons may demand equality."""
    return not any(isinstance(v, float) for v in values)


def values_equal(a, b, exact: bool | None = None) -> bool:
    if exact is None:
        exact = is_exact(a, b)
    if exact:
        return a == b
    return abs(a - b) <= FLOAT_TOL


class CollectivaError(Exception):
    """Base class for all package errors."""


class InputError(CollectivaError):
    """Malformed, inconsistent, or out-of-domain input."""


class NotMeasurableError(InputError):
    """An event or variable is not measurable in the given algebra."""


class NullConditioningError(InputError):
    """Conditioning on an event of probability zero."""


class CapacityError(CollectivaError):
    """A configured size/memory cap would be exceeded."""


def max_mem_bytes() -> int | None:
    """The COLLECTIVA_MAX_MEM byte budget, or None when it is unset."""
    raw = os.environ.get("COLLECTIVA_MAX_MEM")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"COLLECTIVA_MAX_MEM must be an integer byte count, got {raw!r}")


def check_mem(nbytes: int, what: str):
    """CapacityError when `what`, needing about `nbytes`, exceeds the
    COLLECTIVA_MAX_MEM budget; nothing when the budget is unset."""
    mem = max_mem_bytes()
    if mem is not None and nbytes > mem:
        raise CapacityError(f"{what} exceeds COLLECTIVA_MAX_MEM ({nbytes} > {mem} bytes)")


ECHO_CHARS = 32  # the most of an input value a one-line error repeats


def echo(text: str) -> str:
    """repr(text), or past ECHO_CHARS characters the repr of its first ECHO_CHARS and its
    length: what a one-line error repeats of an input value, which may be megabytes long."""
    if len(text) <= ECHO_CHARS:
        return repr(text)
    return f"{text[:ECHO_CHARS]!r}... ({len(text)} characters)"


def echoed(exc: Exception, text: str) -> str:
    """exc's message with its repr of text (Fraction's and float's hold one) put through echo."""
    return str(exc).replace(repr(text), echo(text))


class ConstructionError(CollectivaError):
    """A constructive search exhausted its budget without a valid object."""


class CodecIntegrityError(CollectivaError):
    """A codec failed its lossless round-trip check."""
