"""Exception types shared across the package, the JSON kind check of the config reader
and the store header's dataclasses, and the names of the selection policies and
weighting sources.

The CLI maps these onto exit codes: InputError -> 1, TrainingError, SelectionError
and MemoryError -> 2, FormatError and OS-level failures -> 3. Everything here is
standard library, so the CLI's parser reads the name lists without loading numpy.
"""

import math
import numbers
import sys


class SnapstackError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SnapstackError):
    """Invalid argument, configuration value, or violated precondition."""


class TrainingError(SnapstackError):
    """Training produced a non-finite loss or parameter value."""


class SelectionError(SnapstackError):
    """A snapshot selection matched nothing in the store."""


class FormatError(SnapstackError):
    """Malformed snapshot-store or IDX file."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class BadVersionError(FormatError):
    """File declares an unsupported format version."""


class TruncatedFileError(FormatError):
    """File ends before its declared payload does."""


class CountMismatchError(FormatError):
    """Paired files declare inconsistent record counts."""


class ArchMismatchError(FormatError):
    """Stored parameters do not fit the declared architecture."""


# snapshots.select's policies and stacking.log_likelihoods' sources, which the CLI offers
POLICIES = ("min", "mid", "min+mid", "window", "offset")
SOURCES = ("train", "validation")

# the values each Python type takes as a JSON kind, numpy's scalars too: Python counts a
# bool as an integer, JSON does not
_JSON_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}


def json_kind(hint: type, value, what: str):
    """value as the plain int, float or str that JSON writes, if it is of the JSON kind that
    hint (int, float or str) takes and, as a float, finite, and as an int no longer than
    Python converts to a string (sys.get_int_max_str_digits()); otherwise InputError
    naming what.
    """
    kind, name = _JSON_KINDS[hint]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{what} must be {name}, got {value!r}")
    try:
        value = hint(value)
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if hint is float and not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value}")
    if hint is int:
        try:  # json.dumps writes an int through the same conversion
            str(value)
        except ValueError:  # the value is not named: formatting it raises this again
            raise InputError(
                f"{what} must be an integer of at most {sys.get_int_max_str_digits()} digits"
            ) from None
    return value
